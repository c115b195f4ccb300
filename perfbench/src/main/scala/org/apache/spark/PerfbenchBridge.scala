package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private: the
  * benchmark drains it so listener counters are complete when read.
  */
object PerfbenchBridge {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
