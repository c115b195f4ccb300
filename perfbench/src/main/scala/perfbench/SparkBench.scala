package perfbench

import java.io.File
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.Oracle
import repro.core._
import repro.dist._

/** The Spark layer (`repro.dist`): component tagging plus one engine per
  * component ([[DistributedProvenance.run]]), the five
  * [[ProvenanceQueries]] over the cached rows, and incremental
  * [[StreamingProvenance]] fed through a `MemoryStream`.
  *
  * `rs` is a stream whose generator components are `components`
  * disjoint vertex ranges of `profile`; the benchmark drops the component
  * column, so tagging does the real work.
  */
final class SparkBench(spark: SparkSession, profile: Gen.Profile, components: Int,
                       rs: Array[Interaction], workDir: File, slots: Int,
                       ops: Ops, tracer: Option[Tracer]) {
  import spark.implicits._
  import SparkBench._

  private val alertThreshold = 20 * rs.iterator.map(_.q).sum / rs.length

  /** The untagged interaction frame, cached; its rows are checked
    * against the generated stream's digest.
    */
  val input: DataFrame = {
    val df = rs.toSeq.map(r => (r.id, r.t, r.s, r.d, r.q)).toDF("id", "ts", "src", "dst", "qty").cache()
    ops.check("the Spark input is the generated stream") {
      val back = df.collect().map(x => Interaction(x.getLong(2), x.getLong(3), x.getLong(1), x.getDouble(4), x.getLong(0)))
      require(Digest.of(back.sortBy(_.id)) == Digest.of(rs), "digests differ")
    }
    df
  }
  private val edges = input.select("src", "dst").distinct().cache()

  private val queries: Seq[(String, DataFrame => DataFrame)] = Seq(
    "totals_by_origin" -> ProvenanceQueries.totalsByOrigin,
    "origin_shares" -> ProvenanceQueries.originShares,
    "top_contributors" -> (p => ProvenanceQueries.topContributors(p, TopK)),
    "origin_counts" -> ProvenanceQueries.originCounts,
    "alerts" -> (p => ProvenanceQueries.alerts(p, edges, alertThreshold)),
  )

  private val jobS = mutable.ArrayBuffer.empty[Double]
  private val queryS = mutable.ArrayBuffer.empty[Double]
  private val jobSpans = mutable.ArrayBuffer.empty[(Span, Span, Span, Long)]
  private val querySpans = mutable.ArrayBuffer.empty[Seq[Span]]
  private var rows: Option[Dataset[ProvRow]] = None
  private var tagged: Option[Dataset[TaggedInteraction]] = None

  private def materialise(ds: Dataset[ProvRow]): (Dataset[ProvRow], Long) = {
    val c = ds.cache(); (c, c.count())
  }

  /** One repetition: the job, then the five queries over its rows. The
    * job is [[DistributedProvenance.tag]] followed by
    * [[DistributedProvenance.run]] on the tagged rows, which is what
    * `run` does with untagged input, with the tagging result kept for the
    * checks.
    */
  def rep(traced: Boolean): Unit = {
    rows.foreach(_.unpersist(blocking = true)); rows = None
    val t = tracer.filter(_ => traced)
    val job = ops.attempt("dist job") {
      t match {
        case None =>
          val t0 = System.nanoTime()
          val tg = DistributedProvenance.tag(spark, input)
          val (r, _) = materialise(DistributedProvenance.run(spark, tg.toDF(), ConsolidatedFifo))
          jobS += (System.nanoTime() - t0) / 1e9
          tagged = Some(tg)
          r
        case Some(tr) =>
          val ((r, n, tg, tag, prov), job) = tr.span("dist.job") { id =>
            val (tg, tag) = tr.span("dist.tag", id)(_ => DistributedProvenance.tag(spark, input))
            val ((r, n), prov) = tr.span("dist.provenance", id) { _ =>
              materialise(DistributedProvenance.run(spark, tg.toDF(), ConsolidatedFifo))
            }
            (r, n, tg, tag, prov)
          }
          jobSpans += ((job, tag, prov, n))
          tagged = Some(tg)
          r
      }
    }
    rows = job
    for (r <- job) {
      val prov = r.toDF()
      t match {
        case None =>
          val times = queries.flatMap { case (name, q) =>
            ops.attempt(s"query $name") {
              val t0 = System.nanoTime(); q(prov).collect(); (System.nanoTime() - t0) / 1e9
            }
          }
          if (times.size == queries.size) queryS += times.sum
        case Some(tr) =>
          val spans = queries.flatMap { case (name, q) =>
            ops.attempt(s"query $name")(tr.span(s"query.$name")(_ => q(prov).collect())._2)
          }
          if (spans.size == queries.size) querySpans += spans
      }
    }
  }

  /** One untimed repetition, part of set-up. */
  def warmUp(): Unit = { rep(traced = false); jobS.clear(); queryS.clear() }

  private var reps = 0

  /** `n` more repetitions; with a tracer, every other one is traced. */
  def measure(n: Int): Unit =
    for (_ <- 0 until n) { rep(traced = tracer.isDefined && reps % 2 == 0); reps += 1 }

  def endToEnd(m: Metrics): Unit = {
    m.put("dist.job_s", Stats.median(jobS.toSeq), "s")
    m.put("dist.query_s", Stats.median(queryS.toSeq), "s")
  }

  def perLayer(m: Metrics): Unit = {
    def med(xs: Iterable[Double]) = Stats.median(xs.toSeq)
    m.put("dist.tag_s", med(jobSpans.map(_._2.ms / 1e3)), "s")
    m.put("dist.tag.jobs", med(jobSpans.map(_._2("spark_jobs"))), "count")
    m.put("dist.tag.shuffle_write_bytes", med(jobSpans.map(_._2("shuffle_write_bytes"))), "bytes")
    m.put("dist.provenance_s", med(jobSpans.map(_._3.ms / 1e3)), "s")
    m.put("dist.provenance.shuffle_write_bytes", med(jobSpans.map(_._3("shuffle_write_bytes"))), "bytes")
    m.put("dist.provenance.rows", med(jobSpans.map(_._4.toDouble)), "count")
    // The engine stage is the provenance stage with the most task time;
    // its slowest component sets the stage time.
    val engineTasks = jobSpans.map { case (_, _, prov, _) =>
      tracer.get.tasksOf(prov).groupBy(_.stage).values.maxBy(_.map(_.runMs).sum).map(_.durationMs.toDouble)
    }
    m.put("dist.provenance.task_ms.max", med(engineTasks.map(_.max)), "ms")
    m.put("dist.provenance.task_ms.p50", med(engineTasks.map(ts => Stats.median(ts))), "ms")
    m.put("dist.busy_ratio", med(jobSpans.map(j => j._1("executor_run_ms") / (j._1.ms * slots))), "ratio")
    m.put("dist.gc_ms", med(jobSpans.map(_._1("executor_gc_ms"))), "ms")
    queries.map(_._1).zipWithIndex.foreach { case (name, i) =>
      m.put(s"query.${name}_s", med(querySpans.map(_(i).ms / 1e3)), "s")
    }
    m.put("query.shuffle_write_bytes", med(querySpans.map(_.map(_("shuffle_write_bytes")).sum)), "bytes")
    m.put("trace.overhead.dist.job_s", med(jobSpans.map(_._1.ms / 1e3)) - med(jobS), "s")
    m.put("trace.overhead.dist.query_s", med(querySpans.map(_.map(_.ms / 1e3).sum)) - med(queryS), "s")
  }

  /** Correctness of the last repetition and of tagging, outside the
    * timed regions.
    */
  def checks(m: Metrics): Unit = {
    for (r <- rows) {
      ops.check("dist equals one sequential consolidated-FIFO engine") {
        val got = mutable.HashMap.empty[(Long, Long), Double]
        r.collect().foreach(x => got((x.vertex, x.origin)) = got.getOrElse((x.vertex, x.origin), 0.0) + x.quantity)
        val seq = ConsolidatedFifo(); rs.foreach(seq.process)
        Compare.requireSameTotals("dist vs sequential", got, Column.originTotals(seq), rel = 0.0)
      }
      // The oracle loads its tables row by row, so it checks the rows of
      // the first OracleComponents generator components: a closed
      // sub-instance, since no vertex or origin crosses components.
      val bound = OracleComponents.toLong * (profile.vertices / components)
      val prov = r.toDF().where($"vertex" < bound)
      val subEdges = edges.where($"src" < bound)
      oracleSql(alertThreshold).foreach { case (name, sql) =>
        val q = if (name == "alerts") (p: DataFrame) => ProvenanceQueries.alerts(p, subEdges, alertThreshold)
                else queries.find(_._1 == name).get._2
        ops.check(s"query $name matches DuckDB") {
          val tables = Seq("prov" -> prov) ++ (if (name == "alerts") Seq("edges" -> subEdges) else Nil)
          Oracle.assertEquivalent(q(prov), sql, tables: _*)
        }
      }
    }
    val tags = tagged.flatMap(tg => ops.attempt("collect tags")(tg.collect().sortBy(_.id)))
      .getOrElse(Array.empty[TaggedInteraction])
    ops.check("tagging refines the generator components") {
      require(tags.length == rs.length, s"${tags.length} of ${rs.length} interactions tagged")
      val gen = tags.groupBy(_.component).view.mapValues(_.map(x => Gen.componentOf(profile, components, x.src)).toSet)
      val mixed = gen.filter(_._2.size > 1)
      require(mixed.isEmpty, s"tagged components span generator components: ${mixed.take(3).toMap}")
      m.put("dist.components", gen.size.toDouble, "count")
    }
  }

  // -------------------------------------------------------------------
  // Streaming

  private val batchMs = mutable.ArrayBuffer.empty[Double]
  private val tracedBatchMs = mutable.ArrayBuffer.empty[Double]
  private val outRows = mutable.ArrayBuffer.empty[Double]
  private var progress: Seq[org.apache.spark.sql.streaming.StreamingQueryProgress] = Nil

  /** Feed the stream, tagged with its generator components as
    * `TinGen`'s `component` column tags it, in `warm + batches` equal
    * micro-batches, timing each of the last `batches` from `addData` to
    * `processAllAvailable`. Returns the time of starting the query and of
    * the warm-up batches, which is set-up.
    */
  def stream(warm: Int, batches: Int): Double = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val tags = rs.map(r => TaggedInteraction(r.id, r.t, r.s, r.d, r.q, Gen.componentOf(profile, components, r.s)))
    val size = tags.length / (warm + batches)
    require(size >= 1, "too few interactions for the micro-batches")
    val compOf = tags.iterator.flatMap(r => Iterator(r.src -> r.component, r.dst -> r.component)).toMap
    val latest = mutable.HashMap.empty[Long, Array[StreamingProvenance.StreamedProvRow]]
    var emitted = 0L
    val tStart = System.nanoTime()
    val ckpt = new File(workDir, s"stream-${System.nanoTime()}")
    val mem = MemoryStream[TaggedInteraction]
    val query = StreamingProvenance(spark, mem.toDS(), Policy.Fifo).writeStream
      .outputMode("update")
      .option("checkpointLocation", ckpt.getPath)
      .foreachBatch { (ds: Dataset[StreamingProvenance.StreamedProvRow], _: Long) =>
        val out = ds.collect()
        emitted = out.length
        out.groupBy(r => compOf(r.vertex)).foreach { case (c, xs) => latest(c) = xs }
      }
      .start()
    var warmS = (System.nanoTime() - tStart) / 1e9
    try {
      for (i <- 0 until warm + batches) {
        val slice = tags.slice(i * size, (i + 1) * size)
        val traced = tracer.isDefined && i % 2 == 0
        val t0 = System.nanoTime()
        ops.attempt(s"micro-batch $i") {
          tracer.filter(_ => traced) match {
            case Some(t) => t.span("stream.batch") { _ => mem.addData(slice.toSeq); query.processAllAvailable() }
            case None    => mem.addData(slice.toSeq); query.processAllAvailable()
          }
        }
        val ms = (System.nanoTime() - t0) / 1e6
        if (i < warm) warmS += ms / 1e3
        else {
          (if (traced) tracedBatchMs else batchMs) += ms
          outRows += emitted.toDouble
        }
      }
      progress = query.recentProgress.toSeq.filter(_.numInputRows > 0).sortBy(_.batchId).drop(warm)
    } finally {
      query.stop()
      deleteRecursively(ckpt)
    }
    val fed = tags.take((warm + batches) * size)
    ops.check("final stream state equals batch FIFO") {
      val got = mutable.HashMap.empty[(Long, Long), Double]
      latest.valuesIterator.flatten.foreach(x => got((x.vertex, x.origin)) = got.getOrElse((x.vertex, x.origin), 0.0) + x.quantity)
      val batch = new OrderedEngine(Policy.Fifo)
      fed.foreach(x => batch.process(Interaction(x.src, x.dst, x.ts, x.qty, x.id)))
      Compare.requireSameTotals("stream vs batch FIFO", got, Column.originTotals(batch), rel = 0.0)
    }
    warmS
  }

  def streamEndToEnd(m: Metrics): Unit = {
    m.put("stream.batch_ms.p50", Stats.median(batchMs.toSeq), "ms")
    m.put("stream.batch_ms.p75", Stats.tailPercentile(batchMs.toSeq, 0.75), "ms")
  }

  def streamPerLayer(m: Metrics): Unit = {
    def dur(key: String) = progress.map(p => Option(p.durationMs.get(key)).map(_.doubleValue).getOrElse(0.0))
    m.put("stream.add_batch_ms.p50", Stats.median(dur("addBatch")), "ms")
    m.put("stream.add_batch_ms.p75", Stats.tailPercentile(dur("addBatch"), 0.75), "ms")
    m.put("stream.query_planning_ms.p50", Stats.median(dur("queryPlanning")), "ms")
    m.put("stream.state_commit_ms.p50",
          Stats.median(progress.map(_.stateOperators.map(_.commitTimeMs).sum.toDouble)), "ms")
    m.put("stream.output_rows_per_batch.p50", Stats.median(outRows.toSeq), "count")
    val lastOp = progress.last.stateOperators
    m.put("stream.state_memory_bytes", lastOp.map(_.memoryUsedBytes).sum.toDouble, "bytes")
    m.put("stream.state_rows", lastOp.map(_.numRowsTotal).sum.toDouble, "count")
    m.put("trace.overhead.stream.batch_ms.p50", Stats.median(tracedBatchMs.toSeq) - Stats.median(batchMs.toSeq), "ms")
  }
}

object SparkBench {

  /** `k` of the top-contributors query. */
  val TopK = 3

  /** Generator components whose rows the DuckDB oracle checks. */
  val OracleComponents = 1

  /** The engine run per component: consolidated FIFO, as in Tables 7/8. */
  val ConsolidatedFifo: DistributedProvenance.EngineFactory =
    () => new OrderedEngine(Policy.Fifo, consolidate = true)

  /** DuckDB statements equivalent to the five queries, over tables
    * `prov(vertex, origin, quantity, birth)` and `edges(src, dst)`.
    */
  def oracleSql(alertThreshold: Double): Seq[(String, String)] = Seq(
    "totals_by_origin" ->
      "SELECT origin, round(sum(CAST(quantity AS DOUBLE)), 6) AS total FROM prov GROUP BY origin",
    "origin_shares" ->
      """WITH agg AS (
        |  SELECT vertex, origin, sum(CAST(quantity AS DOUBLE)) AS q FROM prov GROUP BY vertex, origin
        |), tot AS (SELECT vertex, sum(q) AS t FROM agg GROUP BY vertex)
        |SELECT agg.vertex, agg.origin, round(agg.q / tot.t, 6) AS share
        |FROM agg JOIN tot ON agg.vertex = tot.vertex""".stripMargin,
    "top_contributors" ->
      s"""WITH agg AS (
        |  SELECT vertex, origin, round(sum(CAST(quantity AS DOUBLE)), 6) AS total
        |  FROM prov GROUP BY vertex, origin
        |), ranked AS (
        |  SELECT vertex, origin, total,
        |         row_number() OVER (PARTITION BY vertex ORDER BY total DESC, CAST(origin AS BIGINT)) AS rank
        |  FROM agg
        |)
        |SELECT vertex, origin, total, rank FROM ranked WHERE rank <= $TopK""".stripMargin,
    "origin_counts" ->
      "SELECT vertex, count(DISTINCT origin) AS norigins FROM prov GROUP BY vertex",
    "alerts" ->
      s"""WITH tot AS (
        |  SELECT vertex, round(sum(CAST(quantity AS DOUBLE)), 6) AS total
        |  FROM prov GROUP BY vertex HAVING sum(CAST(quantity AS DOUBLE)) > $alertThreshold
        |), nb AS (
        |  SELECT DISTINCT p.vertex
        |  FROM prov p JOIN (SELECT DISTINCT src, dst FROM edges) e
        |    ON p.vertex = e.dst AND p.origin = e.src
        |  WHERE p.origin <> p.vertex
        |)
        |SELECT vertex, total FROM tot WHERE vertex NOT IN (SELECT vertex FROM nb)""".stripMargin,
  )

  def deleteRecursively(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteRecursively))
    f.delete(); ()
  }
}
