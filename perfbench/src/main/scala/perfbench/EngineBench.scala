package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core._

/** One Tables 7/8 engine column, built with its public constructor. */
final case class Column(name: String, make: () => ProvenanceEngine)

object Column {

  /** The accounted-memory budget of the paper's "—" cells. */
  val BudgetBytes: Long = 512L * 1024 * 1024

  /** Passes slower than this have the Tables 7/8 "time" status. */
  val PassLimitNs: Long = 60L * 1000 * 1000 * 1000

  /** All eight columns in today's Tables 7/8 (and Table 10) configuration:
    * LRB/MRB unconsolidated, FIFO/LIFO consolidated, LIFO with paths.
    */
  def all(numVertices: Int): Seq[Column] = Seq(
    Column("noprov", () => new NoProv(BudgetBytes)),
    Column("lrb", () => new OrderedEngine(Policy.LeastRecentlyBorn, budgetBytes = BudgetBytes)),
    Column("mrb", () => new OrderedEngine(Policy.MostRecentlyBorn, budgetBytes = BudgetBytes)),
    Column("fifo", () => new OrderedEngine(Policy.Fifo, budgetBytes = BudgetBytes, consolidate = true)),
    Column("lifo", () => new OrderedEngine(Policy.Lifo, budgetBytes = BudgetBytes, consolidate = true)),
    Column("lifo_paths", () =>
      new OrderedEngine(Policy.Lifo, trackPaths = true, budgetBytes = BudgetBytes, consolidate = true)),
    Column("prop_dense", () => new ProportionalDense(numVertices, BudgetBytes)),
    Column("prop_sparse", () => new ProportionalSparse(BudgetBytes)),
  )

  /** (vertex, origin) → buffered quantity of an engine's final state. */
  def originTotals(e: ProvenanceEngine): Map[(Long, Long), Double] = {
    val m = mutable.HashMap.empty[(Long, Long), Double]
    e.snapshot().foreach { case (v, p) => m((v, p.origin)) = m.getOrElse((v, p.origin), 0.0) + p.quantity }
    m.toMap
  }
}

/** The engine layer (`repro.core`): every column timed over one stream,
  * one whole pass of a fresh engine at a time, in round-robin cycles so
  * that drift in the machine reaches every column alike.
  */
final class EngineBench(columns: Seq[Column], rs: Array[Interaction], ops: Ops,
                        tracer: Option[Tracer]) {
  private val n = rs.length
  private val last = mutable.Map.empty[String, ProvenanceEngine]
  private val untimed = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val timed = mutable.Map.empty[String, mutable.ArrayBuffer[(Double, Span)]]

  private def drive(e: ProvenanceEngine, t0: Long): String = {
    var i = 0
    while (i < n) {
      e.process(rs(i))
      i += 1
      if ((i & 0x3fff) == 0 && System.nanoTime() - t0 > Column.PassLimitNs) return "time"
    }
    "ok"
  }

  /** One pass of a fresh engine of `c`; its cost in ns per interaction,
    * or None when the pass failed.
    */
  private def pass(c: Column): Option[Double] = {
    val e = c.make()
    val t0 = System.nanoTime()
    val status =
      try drive(e, t0)
      catch { case _: InfeasibleError => "mem"; case NonFatal(x) => s"error $x" }
    val ns = (System.nanoTime() - t0).toDouble / n
    ops.attempted += 1
    if (status == "ok") { last(c.name) = e; Some(ns) }
    else { ops.fail(s"${c.name} pass status $status"); None }
  }

  private var cycles = 0

  /** One pass of every column. With a tracer, every other cycle is
    * traced, one span per pass.
    */
  private def cycle(): Unit = {
    val traced = tracer.isDefined && cycles % 2 == 0
    columns.foreach { c =>
      tracer.filter(_ => traced) match {
        case Some(t) =>
          // The traced cost is the span's, so that it holds the tracing.
          val (ok, sp) = t.span(s"core.${c.name}.pass")(_ => pass(c))
          if (ok.isDefined) timed.getOrElseUpdate(c.name, mutable.ArrayBuffer.empty) += ((sp.ms * 1e6 / n, sp))
        case None =>
          pass(c).foreach(untimed.getOrElseUpdate(c.name, mutable.ArrayBuffer.empty) += _)
      }
    }
    cycles += 1
  }

  /** Cycles until `ns` elapsed, at least one. */
  def run(ns: Long): Unit = {
    val t0 = System.nanoTime()
    while ({ cycle(); System.nanoTime() - t0 < ns }) ()
  }

  /** JIT warm-up, part of set-up: `ns` of untraced cycles whose times
    * are dropped.
    */
  def warmUp(ns: Long): Unit = {
    val t0 = System.nanoTime()
    while ({ columns.foreach(pass); System.nanoTime() - t0 < ns }) ()
  }

  /** End-to-end figures: the cost per interaction of each column and the
    * peak accounted bytes of the heap policies. The cost is that of the
    * fastest pass: a pass is single-threaded work on a fixed input, and on
    * a shared machine interference only ever adds time to it, for seconds
    * to minutes at a time, which moves a median from run to run by more
    * than the bound.
    */
  def endToEnd(m: Metrics): Unit = {
    columns.foreach(c => m.put(s"${c.name}.ns_per_interaction", untimed(c.name).min, "ns"))
    for (p <- Seq("lrb", "mrb"); e <- last.get(p)) m.put(s"$p.peak_accounted_bytes", e.memory.peakBytes.toDouble, "bytes")
  }

  /** Per-layer figures, from the traced passes and the final engines. */
  def perLayer(m: Metrics): Unit = {
    columns.foreach { c =>
      val p = c.name
      val spans = timed(p).map(_._2)
      m.put(s"$p.alloc_bytes_per_interaction", spans.map(_("alloc_bytes")).sum / (spans.size.toDouble * n), "bytes")
      m.put(s"$p.gc_ms", spans.map(_("gc_ms")).sum / spans.size, "ms")
      m.put(s"trace.overhead.$p.ns_per_interaction",
            Stats.median(timed(p).map(_._1).toSeq) - Stats.median(untimed(p).toSeq), "ns")
      last.get(p).foreach { e =>
        ops.attempt(s"$p snapshot") {
          val ms = (0 until 3).map { _ =>
            val t0 = System.nanoTime(); e.snapshot(); (System.nanoTime() - t0) / 1e6
          }
          m.put(s"$p.snapshot_ms", Stats.median(ms), "ms")
        }
        m.put(s"$p.peak_accounted_bytes", e.memory.peakBytes.toDouble, "bytes")
        e match {
          case o: OrderedEngine => m.put(s"$p.live_entries", o.liveElements.toDouble, "count")
          case s: ProportionalSparse =>
            m.put(s"$p.live_entries", s.liveEntries.toDouble, "count")
            m.put(s"$p.peak_entries", s.peakEntries.toDouble, "count")
            m.put(s"$p.avg_list_length", s.avgListLength, "count")
          case _ =>
        }
      }
    }
    last.get("lifo_paths").collect { case o: OrderedEngine =>
      m.put("lifo_paths.peak_path_bytes", o.peakPathBytes.toDouble, "bytes")
      m.put("lifo_paths.avg_path_length", o.avgPathLength, "hops")
    }
    // Workload properties: how often and how much an interaction generates.
    val np = new NoProv(Column.BudgetBytes)
    var newborn = 0L; var generated = 0.0; var total = 0.0
    rs.foreach { r =>
      np.process(r)
      if (np.lastGenerated > 0) newborn += 1
      generated += np.lastGenerated; total += r.q
    }
    m.put("noprov.newborn_share", newborn.toDouble / n, "ratio")
    m.put("noprov.generated_share", generated / total, "ratio")
  }

  /** Correctness of every column's final state, outside the timed regions. */
  def checks(): Unit = {
    val ref = last.get("noprov")
    ops.check("engines finished") {
      require(columns.forall(c => last.contains(c.name)), s"no ok pass of ${columns.map(_.name).filterNot(last.contains)}")
    }
    for (np <- ref; c <- columns if c.name != "noprov"; e <- last.get(c.name)) {
      ops.check(s"${c.name} conserves quantity") {
        val byVertex = mutable.HashMap.empty[Long, Double]
        e.snapshot().foreach { case (v, p) =>
          require(p.quantity >= -ProvenanceEngine.Eps, s"negative quantity $p at $v")
          byVertex(v) = byVertex.getOrElse(v, 0.0) + p.quantity
        }
        val want = np.vertices.map(v => v -> np.bufferTotal(v)).toMap
        Compare.requireSameTotals(s"${c.name} vs noprov buffer totals", byVertex, want)
      }
    }
    def same(a: String, b: String): Unit =
      for (x <- last.get(a); y <- last.get(b))
        ops.check(s"$a equals $b") {
          Compare.requireSameTotals(s"$a vs $b", Column.originTotals(x), Column.originTotals(y))
        }
    same("prop_dense", "prop_sparse")
    same("lifo_paths", "lifo")
  }
}
