package perfbench

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("a metric is stored only with a finite value") {
    val m = new Metrics
    m.put("a.b", 1.5, "ms")
    assert(m.get("a.b").contains(1.5))
    intercept[IllegalArgumentException](m.put("d", Double.NaN, "ms"))
    intercept[IllegalArgumentException](m.put("e", Double.PositiveInfinity, "ms"))
    assert(m.names == Set("a.b"))
  }

  test("the result renders as JSON with every digit") {
    val m = new Metrics
    m.put("x", 0.1234567891234, "s")
    assert(Main.toJson(Map("metrics" -> m.all)) ==
      """{"metrics":{"x":{"value":0.1234567891234,"unit":"s"}}}""")
  }
}
