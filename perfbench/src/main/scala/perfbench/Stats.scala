package perfbench

/** Order statistics over timing samples. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile: the smallest sample with at least a `q`
    * share of the samples at or below it.
    */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(q > 0 && q <= 1, s"percentile rank $q outside (0, 1]")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.size - 1e-9).toInt - 1))
  }

  /** Samples strictly beyond the nearest-rank `q` percentile of `n`. */
  def beyond(n: Int, q: Double): Int = n - math.ceil(q * n - 1e-9).toInt

  /** A percentile is reported only with at least `minBeyond` samples
    * beyond it; otherwise it is a single sample's noise.
    */
  def tailPercentile(xs: Seq[Double], q: Double, minBeyond: Int = 10): Double = {
    require(beyond(xs.size, q) >= minBeyond,
            s"p${(q * 100).round} of ${xs.size} samples has fewer than $minBeyond beyond it")
    percentile(xs, q)
  }
}
