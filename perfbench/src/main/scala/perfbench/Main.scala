package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import repro.core.Interaction

/** One workload: the profile its inputs are drawn from and their sizes.
  *
  * @param engineN    interactions of the single-component stream every
  *                   engine column processes per pass
  * @param sparkN     interactions of the stream given to the Spark layer,
  *                   over `sparkVertices` vertices split into `components`
  *                   generator components
  */
final case class Workload(name: String, why: String, profile: Gen.Profile,
                          engineN: Int, sparkN: Int, sparkVertices: Int, components: Int) {
  def sparkProfile: Gen.Profile = profile.copy(vertices = sparkVertices)

  /** The single-component stream of the engine columns. */
  def engineStream(seed: Long): Array[Interaction] =
    Gen.stream(profile, engineN, 1, Gen.subSeed(seed, "engine"))

  /** The stream of the Spark layer, split into `components`. */
  def sparkStream(seed: Long): Array[Interaction] =
    Gen.stream(sparkProfile, sparkN, components, Gen.subSeed(seed, "spark"))
}

object Workload {
  /** Micro-batches timed per run (p75 then has 10 samples beyond it),
    * after untimed warm-up batches.
    */
  val StreamBatches = 40
  val StreamWarmBatches = 2

  /** Timed repetitions of the Spark job and queries (traced runs add one,
    * so that both traced and untraced repetitions exist).
    */
  val DistReps = 2

  val all: Seq[Workload] = Seq(
    Workload("flights-relay",
      "relay-heavy flights profile: buffers fragment and sparse lists grow long, so the LRB/MRB heaps and the PropSparse merge loop do most of the engine work",
      Gen.flights, engineN = 15_000, sparkN = 42 * 150, sparkVertices = 629, components = 16),
    // A quarter of prosper's vertices and interactions (the same R:V ratio
    // and 95 % source-to-sink split): at 10 K vertices the dense column
    // exceeds the 512 MB budget, and every workload runs every column.
    Workload("prosper-fresh",
      "fresh-generation prosper profile: 95% of interactions generate quantity and lists stay short, so a change aimed at long lists or deep heaps should move little here",
      Gen.prosper.copy(vertices = 2_500), engineN = 77_000, sparkN = 42 * 150, sparkVertices = 625,
      components = 16),
  )
}

/** The benchmark program: one run of one workload. Prints its metrics as
  * one JSON object on the last line of standard output.
  */
object Main {

  /** Engine warm-up, part of set-up. */
  val EngineWarmUpNs: Long = 1000L * 1000 * 1000

  def toJson(v: Any): String = Serialization.write(v.asInstanceOf[AnyRef])(DefaultFormats)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val launchMs = opt("launch-epoch-ms").toLong
    val w = Workload.all.find(_.name == opt("workload")).getOrElse(sys.error(s"unknown workload ${opt("workload")}"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val workDir = new File(opt("work-dir"))
    val out = run(w, seed, seconds, trace, workDir, opt("master"), opt("shuffle-partitions").toInt, launchMs)
    println(toJson(out))
  }

  private def timeS[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Time a phase of the run and log how long it took. */
  private def phase[T](name: String)(body: => T): (T, Double) = {
    val (r, s) = timeS(body)
    log(f"$name%-22s $s%7.2f s")
    (r, s)
  }

  def run(w: Workload, seed: Long, seconds: Double, trace: Boolean, workDir: File,
          master: String, partitions: Int, launchMs: Long): Map[String, Any] = {
    val toMainS = (System.currentTimeMillis() - launchMs) / 1e3
    val ops = new Ops
    val m = new Metrics
    val tracer = if (trace) Some(new Tracer(s"${w.name}-$seed")) else None

    // Generating both streams and their digests is timed three times and
    // its median counts in set-up, so that a costlier generator shows.
    // DigestSpec pins the digests of seed 1, run.py logs them, and the
    // Spark input is checked against them below.
    val gens = (0 until 3).map { _ =>
      timeS {
        val e = w.engineStream(seed); val s = w.sparkStream(seed)
        (e, s, Digest.of(e), Digest.of(s))
      }
    }
    val (engineRs, sparkRs, engineDigest, sparkDigest) = gens.head._1
    log(s"${w.name} seed=$seed engine stream: $engineDigest; spark stream: $sparkDigest")
    var setupS = toMainS + Stats.median(gens.map(_._2))

    // Engine layer: `seconds` of round-robin passes, before Spark starts,
    // so that Spark's own use of `OrderedEngine` in this JVM cannot
    // recompile the code being timed, and the engines' garbage is not
    // collected inside Spark's timed calls.
    val engines = new EngineBench(Column.all(w.profile.vertices), engineRs, ops, tracer)
    setupS += phase("engine warm-up")(engines.warmUp(EngineWarmUpNs))._2
    phase("engines")(engines.run((1e9 * seconds).toLong))
    phase("engine checks")(engines.checks())
    if (trace) engines.perLayer(m) else engines.endToEnd(m)

    // Spark layer: fixed numbers of repetitions and micro-batches, the
    // repetitions either side of the stream.
    val (spark, sparkS) = phase("spark start")(session(master, partitions, workDir))
    setupS += sparkS
    try {
      val counters = new SparkCounters(spark.sparkContext)
      spark.sparkContext.addSparkListener(counters)
      tracer.foreach(_.spark = Some(counters))
      val slots = spark.sparkContext.defaultParallelism
      val (sb, prepS) = phase("spark input")(
        new SparkBench(spark, w.sparkProfile, w.components, sparkRs, workDir, slots, ops, tracer))
      setupS += prepS
      setupS += phase("dist warm-up")(sb.warmUp())._2
      val reps = if (trace) Workload.DistReps + 1 else Workload.DistReps
      phase("dist measure")(sb.measure((reps + 1) / 2))
      phase("dist checks")(sb.checks(m))
      setupS += phase("stream")(sb.stream(Workload.StreamWarmBatches, Workload.StreamBatches))._1
      phase("dist measure")(sb.measure(reps / 2))
      if (trace) { sb.perLayer(m); sb.streamPerLayer(m) } else { sb.endToEnd(m); sb.streamEndToEnd(m) }
    } finally spark.stop()
    m.put("setup_s", setupS, "s")

    log(s"${w.name} seed=$seed attempted=${ops.attempted} failed=${ops.failed}")
    val result = Map(
      "workload" -> w.name, "seed" -> seed, "why" -> w.why,
      "digests" -> Map("engine" -> engineDigest.toString, "spark" -> sparkDigest.toString),
      "correct" -> (ops.failed == 0), "attempted" -> ops.attempted, "failed" -> ops.failed,
      "failures" -> ops.failures.toSeq, "metrics" -> m.all,
    )
    tracer.foreach { t =>
      workDir.mkdirs()
      val f = new File(workDir, s"trace-${w.name}-seed$seed.json")
      val pw = new PrintWriter(f)
      try pw.println(toJson(result + ("spans" -> t.toJson))) finally pw.close()
    }
    result
  }

  private def session(master: String, partitions: Int, workDir: File): SparkSession =
    SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", partitions.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.local.dir", new File(workDir, "spark").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      .config("spark.sql.streaming.numRecentProgressUpdates", 1000L)
      .getOrCreate()

  def log(s: String): Unit = Console.err.println(s"[perfbench] $s")
}
