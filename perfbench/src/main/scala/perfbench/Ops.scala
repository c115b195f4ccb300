package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Attempted and failed operations of one run. An operation is one
  * engine pass, one Spark call, one micro-batch or one correctness check.
  */
final class Ops {
  var attempted = 0L
  var failed = 0L
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def fail(what: String): Unit = {
    failed += 1
    if (failures.size < 20) failures += what
    Console.err.println(s"[perfbench] FAILED: $what")
  }

  /** Count one operation; an exception marks it failed and yields None. */
  def attempt[T](what: String)(body: => T): Option[T] = {
    attempted += 1
    try Some(body)
    catch { case NonFatal(e) => fail(s"$what: $e"); None }
  }

  /** A correctness check: a failed `require` or any exception fails it. */
  def check(what: String)(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    attempt(s"check $what")(body)
    Console.err.println(f"[perfbench] check ${(System.nanoTime() - t0) / 1e9}%6.2f s  $what")
  }
}

/** Comparisons used by the correctness checks. */
object Compare {

  /** Equal within `rel` of the larger magnitude (absolute below 1). */
  def close(a: Double, b: Double, rel: Double = 1e-6): Boolean =
    math.abs(a - b) <= rel * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Require two keyed totals to agree on the union of their keys. */
  def requireSameTotals[K](what: String, a: collection.Map[K, Double],
                           b: collection.Map[K, Double], rel: Double = 1e-6): Unit = {
    val bad = (a.keySet ++ b.keySet).iterator
      .map(k => (k, a.getOrElse(k, 0.0), b.getOrElse(k, 0.0)))
      .filterNot { case (_, x, y) => close(x, y, rel) }
      .take(3).toList
    require(bad.isEmpty, s"$what differ at ${bad.mkString(", ")} (${a.size} vs ${b.size} keys)")
  }
}
