package perfbench

import java.util.SplittableRandom
import repro.core.Interaction

/** The benchmark's own seeded TIN generator.
  *
  * It reproduces the structure of `repro.tin.TinGen` (zipf hubs mixed
  * with a uniform tail, an optional source-half → sink-half split,
  * round-robin components with disjoint vertex ranges, self-loops bumped
  * to the next vertex) with the profile parameters pinned here, so that a
  * change to the repository's generators cannot change a workload.
  *
  * Quantities are drawn from the profile's distribution and rounded to
  * whole units (at least 1). Whole units keep every FIFO/LIFO split
  * exact, so Spark, DuckDB and the sequential engines sum the same
  * quantities to the same bits in any order.
  */
object Gen {

  sealed trait Qty
  final case class UniformInt(lo: Int, hi: Int) extends Qty
  final case class Exponential(mean: Double) extends Qty

  final case class Profile(name: String, vertices: Int, skewAlpha: Double, qty: Qty,
                           uniformMix: Double = 0.0, disjointFrac: Double = 0.0)

  /** `TinGen.flights`: 629 airports, integer passenger counts, no split. */
  val flights: Profile = Profile("flights", 629, 0.8, UniformInt(50, 200))

  /** `TinGen.prosper`: 95 % of loans flow from the lender half to the
    * borrower half, so almost every interaction generates quantity.
    */
  val prosper: Profile = Profile("prosper", 10_000, 1.05, Exponential(76.0),
                                 uniformMix = 0.5, disjointFrac = 0.95)

  /** `n` interactions of `p` in `(t, id)` order, with `t = id`, split
    * round-robin into `components` disjoint sub-networks.
    */
  def stream(p: Profile, n: Int, components: Int, seed: Long): Array[Interaction] = {
    val vPerComp = p.vertices / components
    require(components >= 1 && vPerComp >= 4, "need at least 4 vertices per component")
    val half = vPerComp / 2
    val rnd = new SplittableRandom(seed)
    def endpoint(lo: Int, size: Int): Int =
      lo + (if (rnd.nextDouble() < p.uniformMix) rnd.nextInt(size)
            else zipf(rnd, size, p.skewAlpha))
    val out = new Array[Interaction](n)
    var i = 0
    while (i < n) {
      val disjoint = rnd.nextDouble() < p.disjointFrac
      val s = if (disjoint) endpoint(0, half) else endpoint(0, vPerComp)
      var d = if (disjoint) endpoint(half, vPerComp - half) else endpoint(0, vPerComp)
      if (d == s) d = (d + 1) % vPerComp
      val q = p.qty match {
        case UniformInt(lo, hi) => (lo + rnd.nextInt(hi - lo + 1)).toDouble
        case Exponential(mean)  => math.max(1.0, math.rint(-mean * math.log(1.0 - rnd.nextDouble())))
      }
      val base = (i % components).toLong * vPerComp
      out(i) = Interaction(base + s, base + d, i.toLong, q, i.toLong)
      i += 1
    }
    out
  }

  /** Generator component of a vertex of a `components`-way stream. */
  def componentOf(p: Profile, components: Int, v: Long): Long = v / (p.vertices / components)

  /** Inverse-CDF rank draw over weights 1/k^alpha, as in `TinGen`. */
  private def zipf(rnd: SplittableRandom, n: Int, alpha: Double): Int = {
    val k = math.pow(1.0 / (rnd.nextDouble() + 1e-9), 1.0 / alpha) - 1.0
    math.min(n - 1L, math.max(0L, k.toLong)).toInt
  }

  /** Derive the seed of one named stream from the run seed. */
  def subSeed(seed: Long, stream: String): Long = Digest.mix(seed ^ Digest.mix(stream.hashCode.toLong))
}

/** Fingerprint of an interaction stream: count, Σq and a hash over every
  * field in stream order. Equal digests mean equal streams, element by
  * element and in the same order.
  */
final case class Digest(count: Long, qtySum: Double, orderHash: Long) {
  override def toString: String = f"n=$count sumq=$qtySum%.1f hash=$orderHash%016x"
}

object Digest {

  /** SplitMix64 finaliser. */
  def mix(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  def of(rs: Iterable[Interaction]): Digest = {
    var n = 0L; var sum = 0.0; var h = 0x9e3779b97f4a7c15L
    rs.foreach { r =>
      n += 1; sum += r.q
      h = mix(h ^ r.s); h = mix(h ^ r.d); h = mix(h ^ r.t)
      h = mix(h ^ java.lang.Double.doubleToLongBits(r.q)); h = mix(h ^ r.id)
    }
    Digest(n, sum, h)
  }
}
