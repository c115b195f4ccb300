package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Interaction

class DigestSpec extends AnyFunSuite {

  private val rs = Gen.stream(Gen.flights, 1000, 4, seed = 7L)

  test("the same seed gives the same stream and digest") {
    val again = Gen.stream(Gen.flights, 1000, 4, seed = 7L)
    assert(again.toSeq == rs.toSeq)
    assert(Digest.of(again) == Digest.of(rs))
  }

  test("another seed gives another digest") {
    assert(Digest.of(Gen.stream(Gen.flights, 1000, 4, seed = 8L)) != Digest.of(rs))
  }

  test("the digest counts, sums and sees order and every field") {
    val d = Digest.of(rs)
    assert(d.count == 1000)
    assert(d.qtySum == rs.map(_.q).sum)
    val swapped = rs.clone(); val t = swapped(0); swapped(0) = swapped(1); swapped(1) = t
    assert(Digest.of(swapped) != d)
    val moved = rs.clone(); moved(5) = moved(5).copy(d = moved(5).d + 1)
    assert(Digest.of(moved).copy(orderHash = 0) == d.copy(orderHash = 0))
    assert(Digest.of(moved) != d)
  }

  test("every workload's streams are pinned for seed 1") {
    val pinned = Map(
      "flights-relay" -> ("n=15000 sumq=1874569.0 hash=23d9d9aed5b4c5dd", "n=6300 sumq=786721.0 hash=a391a9c39d34fe25"),
      "prosper-fresh" -> ("n=77000 sumq=5851418.0 hash=a186d920ee2b3431", "n=6300 sumq=473014.0 hash=3aa68e60a1fe2779"),
    )
    assert(Workload.all.map(_.name).toSet == pinned.keySet)
    Workload.all.foreach { w =>
      val got = (Digest.of(w.engineStream(1L)).toString, Digest.of(w.sparkStream(1L)).toString)
      assert(got == pinned(w.name), w.name)
    }
  }

  test("streams are time-ordered, whole-unit and inside their components") {
    val p = Gen.prosper.copy(vertices = 640)
    val xs = Gen.stream(p, 5000, 16, seed = 3L)
    assert(xs.map(r => (r.t, r.id)).toSeq == xs.map(r => (r.t, r.id)).sorted.toSeq)
    assert(xs.forall(r => r.q >= 1 && r.q == math.rint(r.q)))
    assert(xs.forall(r => r.s != r.d))
    assert(xs.forall(r => Gen.componentOf(p, 16, r.s) == Gen.componentOf(p, 16, r.d)))
    assert(xs.forall(r => Gen.componentOf(p, 16, r.s) == r.id % 16))
  }

  test("flights quantities stay in the profile's passenger range") {
    assert(rs.forall(r => r.q >= 50 && r.q <= 200))
    assert(rs.forall((r: Interaction) => r.s >= 0 && r.s < Gen.flights.vertices))
  }
}
