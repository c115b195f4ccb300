package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("nearest-rank percentile") {
    val xs = (1 to 40).map(_.toDouble)
    assert(Stats.percentile(xs, 0.75) == 30.0)
    assert(Stats.percentile(xs, 1.0) == 40.0)
    assert(Stats.percentile(Seq(5.0), 0.9) == 5.0)
    assert(Stats.percentile((1 to 100).map(_.toDouble), 0.9) == 90.0)
  }

  test("samples beyond a percentile") {
    assert(Stats.beyond(40, 0.75) == 10)
    assert(Stats.beyond(39, 0.75) == 9)
    assert(Stats.beyond(100, 0.9) == 10)
    assert(Stats.beyond(99, 0.9) == 9)
  }

  test("a tail percentile needs ten samples beyond it") {
    val xs = (1 to 40).map(_.toDouble)
    assert(Stats.tailPercentile(xs, 0.75) == 30.0)
    intercept[IllegalArgumentException](Stats.tailPercentile(xs.take(39), 0.75))
    intercept[IllegalArgumentException](Stats.tailPercentile(xs, 0.9))
  }

  test("no samples is an error, not a number") {
    intercept[IllegalArgumentException](Stats.median(Nil))
    intercept[IllegalArgumentException](Stats.percentile(Nil, 0.5))
  }
}
