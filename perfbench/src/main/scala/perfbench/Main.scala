package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession
import scala.jdk.CollectionConverters._

/** The AutoFJ benchmark program.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Set-up starts the Spark session and generates the inputs
  * `SetupRounds` times, then runs `WarmUpPasses` untraced passes; `setup_s`
  * is the median round plus the warm-up. Then passes over the workload's
  * tasks repeat while the next one is expected to end within `--seconds`
  * (at least `MinPasses`); every metric is the median over passes. With
  * `--trace 1` passes are untraced and traced in turn, and the traced ones
  * give the per-layer metrics. The last stdout line is the result JSON.
  */
object Main {

  val SetupRounds = 3
  /** Untraced passes before measuring. The first pass, with a cold JIT
    * compiler and cold Spark code generation, takes two to three times as
    * long as later ones.
    */
  val WarmUpPasses = 1
  /** At least this many measured passes. Pass times of one run vary by
    * 10-20% on a shared 4-vCPU host, so one pass is too few; the pass
    * after the cold one is no noisier than later ones, only 5-25% slower,
    * so it is measured rather than spent on warm-up. A third pass would
    * take a run past the minute that the time limit for all runs allows.
    */
  val MinPasses = 2
  /** Traced runs order their passes untraced, traced, traced, untraced
    * (repeating), so a drift over the run does not bias the overhead.
    */
  val MinTracedPasses = 4

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Args(kv("workload"), kv("seed").toLong, kv("seconds").toDouble, kv.getOrElse("trace", "0") == "1",
      kv.getOrElse("out", "."))
  }

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toVector.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  // Logged per task: CPU and JIT time show whether a slow pass was a busy
  // host (less CPU per wall second) or a cold JIT (more compile time).
  private def cpuS: Double =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9
  private def jitS: Double = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** End-to-end values of one pass. */
  def passMetrics(runs: Seq[TaskRun]): Map[String, Double] = {
    val learn = runs.map(_.learnNs).sum / 1e9
    val apply = runs.map(_.applyNs).sum / 1e9
    Map(
      "learn_s" -> learn,
      "apply_s" -> apply,
      "rows_per_s" -> (runs.map(_.rowsLearned).sum + runs.map(_.rowsJoined).sum) / (learn + apply),
      "precision" -> runs.map(_.precision).sum / runs.size,
      "recall" -> runs.map(_.recall).sum / runs.size,
      "pr_auc" -> runs.map(_.prAuc).sum / runs.size,
      "apply_agreement" -> runs.map(_.agree).sum.toDouble / math.max(runs.map(_.agreeOf).sum, 1),
    )
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    require(Workloads.names.contains(args.workload), s"unknown workload ${args.workload}")

    // ---- set-up, repeated; the last round's session and inputs are kept.
    var spark: SparkSession = null
    var counters: SparkCounters = null
    var tasks = Vector.empty[BenchTask]
    val untraced = () => new Tracer(spark.sparkContext, on = false)
    val firstPrint = scala.collection.mutable.LinkedHashMap.empty[String, String]
    var attempted = 0
    val failures = scala.collection.mutable.ArrayBuffer.empty[String]

    def record(r: TaskRun, label: String): Unit = {
      attempted += 1
      val mismatch = firstPrint.get(r.task).filter(_ != r.fingerprint)
        .map(f => s"output fingerprint ${r.fingerprint} differs from the first run's $f")
      firstPrint.getOrElseUpdate(r.task, r.fingerprint)
      r.failure.orElse(mismatch).foreach(why => failures += s"$label ${r.task}: $why")
    }

    def runTask(t: BenchTask, tr: Tracer, label: String): Option[TaskRun] = {
      tr.task = t.name
      try {
        val (c0, j0) = (cpuS, jitS)
        val r = tr.span(s"task:${t.name}")(t.run(spark, tr))
        log(f"$label ${t.name}: learn ${r.learnNs / 1e9}%.2f s, apply ${r.applyNs / 1e9}%.2f s " +
          f"(process CPU ${cpuS - c0}%.1f s, of which JIT ${jitS - j0}%.1f s)")
        record(r, label)
        Some(r)
      } catch {
        case e: Exception =>
          attempted += 1
          failures += s"$label ${t.name}: ${e.getClass.getSimpleName}: ${e.getMessage}"
          None
      }
    }

    val roundS = (0 until SetupRounds).map { _ =>
      val t0 = System.nanoTime()
      if (spark != null) spark.stop()
      spark = JobSession.build("autofj-perfbench")
      tasks = Workloads.build(args.workload, args.seed)
      (System.nanoTime() - t0) / 1e9
    }
    counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    log(s"tasks: ${tasks.map(t => s"${t.name} (${t.nL}x${t.nR})").mkString(", ")}")
    val warmS = (0 until WarmUpPasses).map { _ =>
      val t0 = System.nanoTime()
      tasks.foreach(t => runTask(t, untraced(), "warm-up"))
      (System.nanoTime() - t0) / 1e9
    }
    val setupS = median(roundS) + warmS.sum
    log(f"set-up: session and inputs ${roundS.map(x => f"$x%.2f").mkString("/")} s, " +
      f"warm-up ${warmS.map(x => f"$x%.2f").mkString("/")} s")

    // ---- measured passes.
    heapPools.foreach(_.resetPeakUsage())
    val tracer = new Tracer(spark.sparkContext, on = true)
    val passes = scala.collection.mutable.ArrayBuffer.empty[(Boolean, Map[String, Double])]
    val t0 = System.nanoTime()
    val passS = scala.collection.mutable.ArrayBuffer.empty[Double]
    def elapsedS = (System.nanoTime() - t0) / 1e9
    var pass = 0
    while (pass < (if (args.trace) MinTracedPasses else MinPasses) || elapsedS + median(passS) <= args.seconds) {
      val p0 = elapsedS
      val traced = args.trace && (pass % 4 == 1 || pass % 4 == 2)
      val tr = if (traced) tracer else untraced()
      tracer.pass = pass
      val runs = tasks.flatMap(t => runTask(t, tr, s"pass$pass"))
      if (runs.size == tasks.size) passes += ((traced, passMetrics(runs)))
      passS += elapsedS - p0
      pass += 1
    }
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    log(f"${passes.size} passes in $elapsedS%.1f s")

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) {
        val e2e = passes.map(_._2)
        def med(k: String) = median(e2e.map(_(k)))
        Seq(
          ("setup_s", setupS, "s"),
          ("learn_s", med("learn_s"), "s"),
          ("rows_per_s", med("rows_per_s"), "1/s"),
          ("precision", med("precision"), "ratio"),
          ("recall", med("recall"), "ratio"),
        )
      } else {
        org.apache.spark.perfbench.ListenerBus.drain(spark.sparkContext)
        val report = new TraceReport(tracer, counters, spark.sparkContext.defaultParallelism)
        report.writeJsonLines(Paths.get(args.out, s"spans-${args.workload}-seed${args.seed}.jsonl"))
        def medOf(traced: Boolean, k: String) = median(passes.filter(_._1 == traced).map(_._2(k)))
        report.layerMetrics ++ Seq(
          ("Trace.learn_overhead_s", medOf(true, "learn_s") - medOf(false, "learn_s"), "s"),
          ("Trace.apply_overhead_s", medOf(true, "apply_s") - medOf(false, "apply_s"), "s"),
          ("FuzzyJoinProgram.agreement", medOf(false, "apply_agreement"), "ratio"),
          ("AutoFJ.pr_auc", medOf(false, "pr_auc"), "ratio"),
          ("JVM.heap_peak_mb", heapPeakMb, "MB"),
        )
      }
    spark.stop()

    val broken = metrics.collect { case (k, v, _) if v.isNaN || v.isInfinite => s"metric $k is $v" }
    (failures ++ broken).foreach(f => log(s"FAILED $f"))
    val body = metrics.map { case (k, v, u) =>
      s""""$k": {"value": ${if (v.isNaN || v.isInfinite) 0.0 else v}, "unit": "$u"}"""
    }.mkString(", ")
    println(s"""{"correct": ${failures.isEmpty && broken.isEmpty}, "attempted": $attempted, "failed": ${failures.size}, "metrics": {$body}}""")
  }
}

/** Per-layer numbers from the traced passes: medians over passes of each
  * layer's wall time, Spark work and counts. `cores` is the number of
  * Spark task threads.
  */
final class TraceReport(tr: Tracer, counters: SparkCounters, cores: Int) {
  import TraceReport._

  private val children: Map[Int, Seq[Span]] = tr.spans.toSeq.filter(_.parent >= 0).groupBy(_.parent)
  private val tracedPasses: Seq[Int] = tr.spans.map(_.pass).distinct.toSeq.sorted
  private def work(s: Span): SparkWork = counters.forGroup(Tracer.group(s.id)).getOrElse(new SparkWork)

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = tr.spans.headOption.fold(0L)(_.startNs)
    val lines = tr.spans.map { s =>
      val w = work(s)
      f"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "task": "${s.task}", "pass": ${s.pass}, """ +
        f""""start_ms": ${(s.startNs - t0) / 1e6}%.3f, "end_ms": ${(s.endNs - t0) / 1e6}%.3f, """ +
        f""""self_ms": ${tr.selfNs(s, children) / 1e6}%.3f, "spark_jobs": ${w.jobs}, "spark_tasks": ${w.tasks}}"""
    }
    Files.write(path, lines.asJava)
  }

  private def spansOf(p: Int, name: String) = tr.spans.iterator.filter(s => s.pass == p && s.name == name)

  /** Median over the traced passes in which `name` ran; 0 if it never ran. */
  private def perPass(name: String)(f: Int => Double): Double = {
    val ps = tracedPasses.filter(p => spansOf(p, name).nonEmpty)
    if (ps.isEmpty) 0.0 else Main.median(ps.map(f))
  }

  def layerMetrics: Seq[(String, Double, String)] = {
    def wall(l: String)(p: Int) = spansOf(p, l).map(_.durNs).sum / 1e9
    val times = Layers.map(l => (timeName(l), perPass(l)(wall(l)), "s"))
    val applySelf = ("FuzzyJoinProgram.self_s", perPass("FuzzyJoinProgram.apply")(p =>
      spansOf(p, "FuzzyJoinProgram.apply").map(tr.selfNs(_, children)).sum / 1e9), "s")
    val spark = SparkLayers.flatMap { l =>
      def sum(f: SparkWork => Double)(p: Int) = spansOf(p, l).map(s => f(work(s))).sum
      Seq(
        (s"$l.spark_jobs", perPass(l)(sum(_.jobs.toDouble)), "count"),
        (s"$l.spark_tasks", perPass(l)(sum(_.tasks.toDouble)), "count"),
        (s"$l.shuffle_mb", perPass(l)(sum(_.shuffleBytes / 1048576.0)), "MB"),
        (s"$l.task_busy_s", perPass(l)(sum(_.busyMs / 1e3)), "s"),
        (s"$l.busy_share", perPass(l)(p => sum(_.busyMs / 1e3)(p) / math.max(wall(l)(p) * cores, 1e-9)), "ratio"),
      )
    }
    val counts = tracedPasses.map(tr.countsOf).filter(_.nonEmpty)
    def count(k: String) = {
      val cs = counts.filter(_.contains(k))
      if (cs.isEmpty) 0.0 else Main.median(cs.map(_(k)))
    }
    def ratio(num: String, den: String) = count(num) / math.max(count(den), 1.0)
    val vectors = count("DistanceTable.vectors")
    val countMetrics = Seq(
      ("Blocking.lr_pairs", count("Blocking.lr_pairs"), "count"),
      ("Blocking.ll_pairs", count("Blocking.ll_pairs"), "count"),
      ("Blocking.gt_kept", ratio("Blocking.gt_kept_pairs", "Blocking.gt_pairs"), "ratio"),
      ("NegativeRules.rules", count("NegativeRules.rules"), "count"),
      ("NegativeRules.pairs_removed", count("NegativeRules.pairs_removed"), "count"),
      ("NegativeRules.gt_removed", count("NegativeRules.gt_removed"), "count"),
      ("DistanceTable.vectors", vectors, "count"),
      // Payload of the collected PairDist rows: two ids and 140 floats each.
      ("DistanceTable.collected_mb", vectors * (16 + 4 * repro.core.ConfigSpace.Size) / 1048576.0, "MB"),
      ("AutoFJ.iters_tau", count("AutoFJ.iters_tau"), "count"),
      ("AutoFJ.iters_unbounded", count("AutoFJ.iters_unbounded"), "count"),
      ("AutoFJ.prec_est_gap", ratio("AutoFJ.prec_gap_sum", "AutoFJ.prec_gap_n"), "ratio"),
      ("MultiColumnAutoFJ.searches", count("MultiColumnAutoFJ.searches"), "count"),
      ("MultiColumnAutoFJ.rounds", count("MultiColumnAutoFJ.rounds"), "count"),
      ("FuzzyJoinProgram.configs", count("FuzzyJoinProgram.configs"), "count"),
      ("FuzzyJoinProgram.rows_out", count("FuzzyJoinProgram.rows_out"), "count"),
    )
    // Time inside task spans that no layer span covers.
    def uncovered(p: Int) =
      tr.spans.iterator.filter(s => s.pass == p && Tracer.isFrame(s.name)).map(tr.selfNs(_, children)).sum / 1e9
    def taskWall(p: Int) = tr.spans.iterator.filter(s => s.pass == p && s.parent < 0).map(_.durNs).sum / 1e9
    val coverage = Seq(
      ("Trace.task_s", Main.median(tracedPasses.map(taskWall)), "s"),
      ("Trace.uncovered_s", Main.median(tracedPasses.map(uncovered)), "s"),
      ("Trace.uncovered_share", Main.median(tracedPasses.map(p => uncovered(p) / math.max(taskWall(p), 1e-9))), "ratio"),
    )
    times ++ Seq(applySelf) ++ spark ++ countMetrics ++ coverage
  }
}

object TraceReport {
  /** Every layer span the benchmark opens, in pipeline order. */
  val Layers: Seq[String] = Seq(
    "Blocking.lr", "Blocking.ll", "NegativeRules.learn", "NegativeRules.filter", "Prepped", "FeatureContext",
    "DistanceTable.lr", "DistanceTable.ll", "SearchData", "AutoFJ.search_tau", "AutoFJ.search_unbounded",
    "MultiColumnAutoFJ.run", "FuzzyJoinProgram.apply")

  /** The layers that launch Spark jobs. */
  val SparkLayers: Seq[String] = Seq(
    "Blocking.lr", "Blocking.ll", "DistanceTable.lr", "DistanceTable.ll", "FuzzyJoinProgram.apply")

  /** `Blocking.lr` → `Blocking.lr_s`; `Prepped` → `Prepped.s`. */
  def timeName(layer: String): String = if (layer.contains('.')) s"${layer}_s" else s"$layer.s"
}
