package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. */
object ListenerBus {
  /** Blocks until every posted event has reached the listeners. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
