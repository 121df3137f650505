package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** One timed call from the benchmark into a layer of the program. `task`
  * names the workload task the call served; `pass` the measured pass.
  */
final case class Span(id: Int, name: String, parent: Int, task: String, pass: Int, startNs: Long) {
  var endNs: Long = startNs
  def durNs: Long = endNs - startNs
}

/** Spark work attributed to one span. */
final class SparkWork {
  var jobs = 0L
  var tasks = 0L
  var shuffleBytes = 0L
  var busyMs = 0L
}

/** Counts Spark jobs, tasks, shuffle bytes and task busy time per job
  * group. The tracer sets the job group to the open span before each call,
  * so every job is attributed to the innermost span that launched it.
  */
final class SparkCounters extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val byGroup = mutable.Map.empty[String, SparkWork]

  private def work(group: String): SparkWork = byGroup.getOrElseUpdate(group, new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    work(group).jobs += 1
    e.stageIds.foreach(s => stageGroup(s) = group)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val w = work(stageGroup.getOrElse(e.stageId, ""))
    w.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      w.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      w.busyMs += m.executorDeserializeTime + m.executorRunTime
    }
  }

  def forGroup(group: String): Option[SparkWork] = synchronized(byGroup.get(group))
}

/** In-memory span recorder. With `on` false every call is a plain call:
  * no clock reads, no job groups, no counts.
  */
final class Tracer(sc: SparkContext, val on: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.Map.empty[(Int, String), Double]
  private var open: List[Span] = Nil
  var task = ""
  var pass = 0

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val s = Span(spans.length, name, open.headOption.fold(-1)(_.id), task, pass, System.nanoTime())
      spans += s
      open = s :: open
      sc.setJobGroup(Tracer.group(s.id), name)
      try body
      finally {
        s.endNs = System.nanoTime()
        open = open.tail
        open.headOption match {
          case Some(p) => sc.setJobGroup(Tracer.group(p.id), p.name)
          case None => sc.clearJobGroup()
        }
      }
    }

  /** Adds `v` to the per-pass counter `name`. */
  def count(name: String, v: Double): Unit =
    if (on) counts((pass, name)) = counts.getOrElse((pass, name), 0.0) + v

  def countsOf(p: Int): Map[String, Double] =
    counts.iterator.collect { case ((`p`, n), v) => n -> v }.toMap

  /** Wall time of `s` not covered by its direct children (children of one
    * span run one after another on one thread).
    */
  def selfNs(s: Span, children: Map[Int, Seq[Span]]): Long =
    s.durNs - children.getOrElse(s.id, Nil).map(_.durNs).sum
}

object Tracer {
  def group(spanId: Int): String = s"perfbench-span-$spanId"

  /** Spans the benchmark opens around whole tasks and phases; every other
    * span is a call into a layer. Their self time is the time no layer
    * span covers.
    */
  def isFrame(name: String): Boolean = name.startsWith("task:") || name == "learn" || name == "apply"
}
