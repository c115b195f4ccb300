package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Allocation of the calling thread and GC time of the JVM, from JMX. */
object Jmx {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes
  def gcMillis: Long = gcs.map(_.getCollectionTime.max(0L)).sum
}

/** One finished task, as the listener saw it. */
final case class TaskRecord(stage: Int, durationMs: Long, runMs: Long)

/** Totals of the Spark jobs and tasks seen so far, registered by the
  * benchmark on its SparkContext. Events arrive on the listener bus
  * thread; [[SparkCounters.read]] drains the bus first.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private var jobs = 0L
  private var shuffleWrite = 0L
  private var runMs = 0L
  private var gcMs = 0L
  private val tasks = mutable.ArrayBuffer.empty[TaskRecord]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      runMs += m.executorRunTime
      gcMs += m.jvmGCTime
      tasks += TaskRecord(e.stageId, e.taskInfo.duration, m.executorRunTime)
    }
  }

  /** Counters after every event posted so far has been delivered. */
  def read(): SparkCounters.Snap = {
    org.apache.spark.PerfbenchBridge.drainListeners(sc)
    synchronized { SparkCounters.Snap(jobs, shuffleWrite, runMs, gcMs, tasks.size) }
  }

  /** Tasks `from` until `until`, in the order they ended. */
  def tasksBetween(from: Int, until: Int): Seq[TaskRecord] =
    synchronized { tasks.slice(from, until).toSeq }
}

object SparkCounters {
  final case class Snap(jobs: Long, shuffleWriteBytes: Long, executorRunMs: Long,
                        executorGcMs: Long, tasks: Int)
}

/** A finished span: a timed call into one layer, with counter deltas. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      counters: Map[String, Double]) {
  def ms: Double = (endNs - startNs) / 1e6
  def apply(counter: String): Double = counters(counter)
}

/** Records spans around the benchmark's calls into the program. Spans
  * are kept in memory and written out once, when the run ends.
  */
final class Tracer(val runId: String) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1
  var spark: Option[SparkCounters] = None

  /** Run `body` inside a span named `name`; `body` gets the span id so
    * nested calls can name it as their parent.
    */
  def span[T](name: String, parent: Int = 0)(body: Int => T): (T, Span) = {
    val id = nextId; nextId += 1
    val s0 = spark.map(_.read())
    val alloc0 = Jmx.allocatedBytes; val gc0 = Jmx.gcMillis
    val t0 = System.nanoTime()
    val out = body(id)
    val t1 = System.nanoTime()
    val alloc1 = Jmx.allocatedBytes; val gc1 = Jmx.gcMillis
    val s1 = spark.map(_.read())
    val counters = mutable.LinkedHashMap[String, Double](
      "alloc_bytes" -> (alloc1 - alloc0).toDouble,
      "gc_ms" -> (gc1 - gc0).toDouble,
    )
    for (a <- s0; b <- s1) {
      counters ++= Seq(
        "spark_jobs" -> (b.jobs - a.jobs).toDouble,
        "shuffle_write_bytes" -> (b.shuffleWriteBytes - a.shuffleWriteBytes).toDouble,
        "executor_run_ms" -> (b.executorRunMs - a.executorRunMs).toDouble,
        "executor_gc_ms" -> (b.executorGcMs - a.executorGcMs).toDouble,
        "task_first" -> a.tasks.toDouble,
        "task_end" -> b.tasks.toDouble,
      )
    }
    val sp = Span(id, parent, name, t0, t1, counters.toMap)
    spans += sp
    (out, sp)
  }

  /** Tasks that ran inside a Spark span. */
  def tasksOf(sp: Span): Seq[TaskRecord] = spark match {
    case Some(c) => c.tasksBetween(sp("task_first").toInt, sp("task_end").toInt)
    case None => Nil
  }

  def toJson: Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("trace" -> runId, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counters" -> s.counters)
  }
}
