package perfbench

import scala.collection.mutable

/** Named metrics of one run, each with its unit. */
final class Metrics {
  private val m = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"$name is not a finite number: $value")
    m(name) = (value, unit)
  }

  def names: Set[String] = m.keySet.toSet
  def get(name: String): Option[Double] = m.get(name).map(_._1)

  /** Every metric as `name -> {value, unit}`, in insertion order. */
  def all: collection.Map[String, Any] =
    m.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }
}
