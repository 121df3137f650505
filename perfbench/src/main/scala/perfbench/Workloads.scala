package perfbench

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.data.{BenchmarkGen, Benchmarks, MultiColGen, MultiTask, SingleTask}
import repro.eval.Metrics
import repro.eval.Metrics.Scored

/** What one task produced in one pass. Times are wall-clock nanoseconds;
  * `agree`/`agreeOf` count joined R rows on which `apply` returned the
  * search's assignment, out of rows joined by either.
  */
final case class TaskRun(
    task: String,
    learnNs: Long,
    applyNs: Long,
    rowsLearned: Int,
    rowsJoined: Int,
    precision: Double,
    recall: Double,
    prAuc: Double,
    agree: Int,
    agreeOf: Int,
    fingerprint: String,
    failure: Option[String],
)

/** A workload task: its inputs are generated once in set-up; `run` executes
  * the timed part of one pass.
  */
sealed trait BenchTask {
  def name: String
  def nL: Int
  def nR: Int
  def run(spark: SparkSession, tr: Tracer): TaskRun
}

object Workloads {

  val Tau = 0.9
  val Steps = 50
  val G = 10
  val thetas = ConfigSpace.thresholds(Steps)
  val fullFids = ConfigSpace.full.map(_.id).toArray

  val names: Vector[String] = Vector("single-learn", "multi-select")

  // One small task per workload: a pass over even the smallest task takes
  // 6-9 s of fixed Spark cost per job, and a run has about a minute.
  /** The single-learn task, in `Benchmarks.singleColumn`. */
  val SingleLearnTask = "RailwayLine"
  /** The multi-select task, in `MultiColGen.specs`, and the factor its row
    * counts are divided by.
    */
  val MultiSelectTask = "ABN"
  val MultiSelectShrink = 4

  /** Generates the workload's inputs. The seed offset shifts every
    * generator seed and changes no size.
    */
  def build(workload: String, seedOffset: Long): Vector[BenchTask] = workload match {
    case "single-learn" =>
      val s = Benchmarks.singleColumn.find(_.name == SingleLearnTask).get
      Vector(SingleLearn(BenchmarkGen.generate(s.copy(seed = s.seed + seedOffset))))
    case "multi-select" =>
      val s = MultiColGen.specs.find(_.name == MultiSelectTask).get
      val k = MultiSelectShrink
      Vector(MultiSelect(MultiColGen.generate(s.copy(seed = s.seed + seedOffset, nL = s.nL / k,
        nExtra = s.nExtra / k, nMatches = s.nMatches / k, nNonMatches = s.nNonMatches / k))))
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  // ------------------------------------------------------------ helpers

  def sha(parts: Iterator[String]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    parts.foreach { p => md.update(p.getBytes("UTF-8")); md.update(0.toByte) }
    md.digest().take(8).map("%02x".format(_)).mkString
  }

  def fingerprint(r: AutoFJ.Result): Iterator[String] =
    r.program.iterator.map(c => s"${c.fId}@${c.theta}") ++
      r.assignment.toSeq.sorted.iterator.map { case (a, b) => s"$a>$b" } ++
      r.scores.toSeq.sorted.iterator.map { case (a, s) => s"$a:$s" }

  /** Structural checks on a search result; returns the first violation. */
  def checkResult(r: AutoFJ.Result, lIds: Set[Long], rIds: Set[Long]): Option[String] =
    if (!r.assignment.keySet.subsetOf(rIds)) Some("assignment joins an unknown right id")
    else if (!r.assignment.values.forall(lIds.contains)) Some("assignment joins an unknown left id")
    else if (r.scores.keySet != r.assignment.keySet) Some("scores do not cover the assignment")
    else None

  def prAucOf(r: AutoFJ.Result, gt: Map[Long, Long], gtTotal: Int): Double =
    Metrics.prAuc(r.scores.toVector.map { case (rid, s) => Scored(rid, r.assignment(rid), s) }, gt, gtTotal)

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** One output row of [[FuzzyJoinProgram.apply]]. */
  final case class Joined(rightId: Long, leftId: Long, distance: Double, configIndex: Int)

  private val joinedSchema = StructType(Seq(
    StructField("rightId", LongType, nullable = false),
    StructField("leftId", LongType, nullable = false),
    StructField("distance", DoubleType, nullable = false),
    StructField("configIndex", IntegerType, nullable = false),
  ))

  private def joinedRows(rows: Array[Row]): Vector[Joined] =
    rows.map(r => Joined(r.getLong(0), r.getLong(1), r.getDouble(2), r.getInt(3))).toVector.sortBy(_.rightId)

  /** `FuzzyJoinProgram.apply`, forced with `collect()`. */
  def applyProgram(spark: SparkSession, p: FuzzyJoinProgram, t: SingleTask): Vector[Joined] =
    joinedRows(p.apply(spark, SingleColumnPipeline.toDF(spark, t.left), SingleColumnPipeline.toDF(spark, t.right))
      .collect())

  /** The calls `FuzzyJoinProgram.apply` makes, one span per layer. The L–R
    * candidates are collected before the records (the frames are lazy, so
    * the order of the two collects does not change any result).
    */
  def applyTraced(spark: SparkSession, tr: Tracer, p: FuzzyJoinProgram, t: SingleTask): Vector[Joined] =
    tr.span("FuzzyJoinProgram.apply") {
      import spark.implicits._
      val left = SingleColumnPipeline.toDF(spark, t.left)
      val right = SingleColumnPipeline.toDF(spark, t.right)
      val cand = tr.span("Blocking.lr") {
        val (lrCand, _) = Blocking.block(spark, left, right)
        lrCand.select("leftId", "rightId").as[(Long, Long)].collect()
      }
      tr.count("Blocking.lr_pairs", cand.length)
      val lRecs = left.select("id", "text").as[(Long, String)].collect().toMap
      val rRecs = right.select("id", "text").as[(Long, String)].collect().toMap
      val (lPrepped, rPrepped) = tr.span("Prepped") {
        (lRecs.map { case (id, s) => id -> Prepped(s) }, rRecs.map { case (id, s) => id -> Prepped(s) })
      }
      val ctx = tr.span("FeatureContext")(FeatureContext.build(lPrepped.values ++ rPrepped.values))
      val keep = tr.span("NegativeRules.filter") {
        cand.filterNot { case (l, r) => NegativeRules.violates(p.rules, lRecs(l), rRecs(r)) }
      }
      tr.count("NegativeRules.pairs_removed", cand.length - keep.length)
      val dists = tr.span("DistanceTable.lr") {
        DistanceTable.compute(spark, SingleColumnPipeline.toPairDF(spark, keep.toSeq), lPrepped, rPrepped, ctx)
      }
      tr.count("DistanceTable.vectors", dists.length)
      val out = dists.groupBy(_.rightId).iterator.flatMap { case (rid, pairs) =>
        p.configs.zipWithIndex.iterator.flatMap { case (c, ci) =>
          val inRange = pairs.filter(_.d(c.fId) <= c.theta)
          if (inRange.isEmpty) None
          else {
            val best = inRange.minBy(q => (q.d(c.fId), q.leftId))
            Some(Row(rid, best.leftId, best.d(c.fId).toDouble, ci))
          }
        }.take(1)
      }.toSeq
      joinedRows(spark.createDataFrame(spark.sparkContext.parallelize(out, 8), joinedSchema).collect())
    }

  def checkJoined(rows: Vector[Joined], p: FuzzyJoinProgram, lIds: Set[Long], rIds: Set[Long]): Option[String] =
    if (rows.map(_.rightId).distinct.size != rows.size) Some("apply joined a right record twice")
    else if (!rows.forall(j => rIds.contains(j.rightId) && lIds.contains(j.leftId))) Some("apply returned an unknown id")
    else if (!rows.forall(j => j.configIndex >= 0 && j.configIndex < p.configs.size &&
        j.distance <= p.configs(j.configIndex).theta)) Some("apply row outside its configuration's threshold")
    else None

  def joinedPrint(rows: Vector[Joined]): Iterator[String] =
    rows.iterator.map(j => s"${j.rightId}>${j.leftId}:${j.distance}:${j.configIndex}")

  /** Joined rows on which `apply` and the search chose the same left
    * record, and rows joined by either.
    */
  def agreement(rows: Vector[Joined], assignment: Map[Long, Long]): (Int, Int) = {
    val applied = rows.iterator.map(j => j.rightId -> j.leftId).toMap
    val either = applied.keySet ++ assignment.keySet
    (either.count(r => applied.get(r).exists(l => assignment.get(r).contains(l))), either.size)
  }
}

import Workloads._

/** Learned state of a single-column task. */
final case class Learned(prepared: SingleColumnPipeline.Prepared, main: AutoFJ.Result, unbounded: AutoFJ.Result)

/** single-learn: learn a program on (L, R), then apply it to the same
  * (L, R).
  */
final case class SingleLearn(t: SingleTask) extends BenchTask {
  def name: String = t.name
  def nL: Int = t.left.size
  def nR: Int = t.right.size
  private lazy val lIds = t.left.map(_._1).toSet
  private lazy val rIds = t.right.map(_._1).toSet

  /** `prepare`, then the τ-bounded and the unbounded search. Untraced it
    * calls the public entry points; traced it makes the calls `prepare`
    * and `autoFJ` make, one span per layer.
    */
  private def learn(spark: SparkSession, tr: Tracer): Learned =
    if (!tr.on) {
      val prepared = SingleColumnPipeline.prepare(spark, t.left, t.right)
      Learned(prepared,
        SingleColumnPipeline.autoFJ(prepared, Tau, gt = t.gt, gtTotal = t.gtTotal),
        SingleColumnPipeline.autoFJ(prepared, 0.0, gt = t.gt, gtTotal = t.gtTotal))
    } else {
      val prepared = prepareTraced(spark, tr)
      def search(name: String, tau: Double): AutoFJ.Result = {
        val data = tr.span("SearchData")(SearchData.fromSingle(prepared.lrFiltered, prepared.llPairs, fullFids))
        tr.span(name)(AutoFJ.search(data, thetas, tau, t.gt, t.gtTotal))
      }
      val main = search("AutoFJ.search_tau", Tau)
      val unbounded = search("AutoFJ.search_unbounded", 0.0)
      tr.count("AutoFJ.iters_tau", main.trace.size)
      tr.count("AutoFJ.iters_unbounded", unbounded.trace.size)
      tr.count("AutoFJ.prec_gap_sum", main.trace.map(s => math.abs(s.estPrecision - s.actPrecision)).sum)
      tr.count("AutoFJ.prec_gap_n", main.trace.size)
      Learned(prepared, main, unbounded)
    }

  private def prepareTraced(spark: SparkSession, tr: Tracer): SingleColumnPipeline.Prepared = {
    val dfL = SingleColumnPipeline.toDF(spark, t.left)
    val dfR = SingleColumnPipeline.toDF(spark, t.right)
    val (llCand, lrRows) = tr.span("Blocking.lr") {
      val (lrCand, llCand) = Blocking.block(spark, dfL, dfR)
      (llCand, lrCand.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))))
    }
    val llRows = tr.span("Blocking.ll") {
      llCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1)))
    }
    val lText = t.left.toMap
    val rText = t.right.toMap
    val rules = tr.span("NegativeRules.learn") {
      NegativeRules.learn(llRows.iterator.map { case (a, b) => (lText(a), lText(b)) }.toSeq)
    }
    val (lPrepped, rPrepped) = tr.span("Prepped") {
      (t.left.map { case (id, s) => id -> Prepped(s) }.toMap, t.right.map { case (id, s) => id -> Prepped(s) }.toMap)
    }
    val ctx = tr.span("FeatureContext")(FeatureContext.build(lPrepped.values ++ rPrepped.values))
    val lrAll = tr.span("DistanceTable.lr") {
      DistanceTable.compute(spark, SingleColumnPipeline.toPairDF(spark, lrRows.map(r => (r._1, r._2))),
        lPrepped, rPrepped, ctx)
    }
    val llPairs = tr.span("DistanceTable.ll") {
      DistanceTable.compute(spark, SingleColumnPipeline.toPairDF(spark, llRows), lPrepped, lPrepped, ctx)
    }
    val lrFiltered = tr.span("NegativeRules.filter") {
      lrAll.filterNot(p => NegativeRules.violates(rules, lText(p.leftId), rText(p.rightId)))
    }
    val lrSet = lrRows.iterator.map(r => (r._2, r._1)).toSet
    val keptSet = lrFiltered.iterator.map(p => (p.rightId, p.leftId)).toSet
    tr.count("Blocking.lr_pairs", lrRows.length)
    tr.count("Blocking.ll_pairs", llRows.length)
    tr.count("Blocking.gt_pairs", t.gt.size)
    tr.count("Blocking.gt_kept_pairs", t.gt.count(lrSet.contains))
    tr.count("NegativeRules.rules", rules.size)
    tr.count("NegativeRules.pairs_removed", lrAll.length - lrFiltered.length)
    tr.count("NegativeRules.gt_removed", t.gt.count(g => lrSet.contains(g) && !keptSet.contains(g)))
    tr.count("DistanceTable.vectors", lrAll.length + llPairs.length)
    SingleColumnPipeline.Prepared(lText, rText, lPrepped, rPrepped, ctx, lrAll, lrFiltered, llPairs, rules,
      lrRows.map(r => (r._1, r._2) -> r._3).toMap)
  }

  def run(spark: SparkSession, tr: Tracer): TaskRun = {
    val (learned, learnNs) = timed(tr.span("learn")(learn(spark, tr)))
    val program = FuzzyJoinProgram(learned.main.program, learned.prepared.rules)
    val (rows, applyNs) = timed(tr.span("apply") {
      if (tr.on) applyTraced(spark, tr, program, t) else applyProgram(spark, program, t)
    })
    tr.count("FuzzyJoinProgram.configs", program.configs.size)
    tr.count("FuzzyJoinProgram.rows_out", rows.size)
    val (p, r) = Metrics.precisionRecall(learned.main.assignment, t.gt, t.gtTotal)
    val (agree, of) = agreement(rows, learned.main.assignment)
    TaskRun(name, learnNs, applyNs, nR, nR, p, r, prAucOf(learned.unbounded, t.gt, t.gtTotal), agree, of,
      sha(fingerprint(learned.main) ++ fingerprint(learned.unbounded) ++
        learned.prepared.rules.toSeq.map(x => s"${x.a}~${x.b}").sorted.iterator ++ joinedPrint(rows)),
      checkResult(learned.main, lIds, rIds)
        .orElse(checkResult(learned.unbounded, lIds, rIds))
        .orElse(checkJoined(rows, program, lIds, rIds)))
  }
}

/** multi-select: `MultiColumnAutoFJ.prepare`, forward selection with g = 10
  * over the reduced 24-function space, then the unbounded search under the
  * selected weights (the PR-curve scores). No apply step exists for
  * multi-column programs.
  */
final case class MultiSelect(t: MultiTask) extends BenchTask {
  def name: String = t.name
  def nL: Int = t.left.size
  def nR: Int = t.right.size
  private lazy val lIds = t.left.map(_._1).toSet
  private lazy val rIds = t.right.map(_._1).toSet

  private def prepareTraced(spark: SparkSession, tr: Tracer): MultiColumnAutoFJ.PreparedMulti = {
    val dfL = SingleColumnPipeline.toDF(spark, t.left.map { case (id, v) => (id, v.mkString(" ")) })
    val dfR = SingleColumnPipeline.toDF(spark, t.right.map { case (id, v) => (id, v.mkString(" ")) })
    val (llCand, lrPairs) = tr.span("Blocking.lr") {
      val (lrCand, llCand) = Blocking.block(spark, dfL, dfR)
      (llCand, lrCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq)
    }
    val llPairs = tr.span("Blocking.ll") {
      llCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    }
    val (lPrepped, rPrepped) = tr.span("Prepped") {
      (t.left.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap,
       t.right.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap)
    }
    val ctxs = tr.span("FeatureContext") {
      Array.tabulate(t.nCols)(c => FeatureContext.build(lPrepped.values.map(_(c)) ++ rPrepped.values.map(_(c))))
    }
    val lrCols = tr.span("DistanceTable.lr") {
      DistanceTable.computeMulti(spark, SingleColumnPipeline.toPairDF(spark, lrPairs), lPrepped, rPrepped, ctxs)
        .map(_.sortBy(p => (p.leftId, p.rightId)))
    }
    val llCols = tr.span("DistanceTable.ll") {
      DistanceTable.computeMulti(spark, SingleColumnPipeline.toPairDF(spark, llPairs), lPrepped, lPrepped, ctxs)
        .map(_.sortBy(p => (p.leftId, p.rightId)))
    }
    val lrSet = lrPairs.iterator.map(_.swap).toSet
    tr.count("Blocking.lr_pairs", lrPairs.size)
    tr.count("Blocking.ll_pairs", llPairs.size)
    tr.count("Blocking.gt_pairs", t.gt.size)
    tr.count("Blocking.gt_kept_pairs", t.gt.count(lrSet.contains))
    tr.count("DistanceTable.vectors", (lrPairs.size + llPairs.size).toDouble * t.nCols)
    MultiColumnAutoFJ.PreparedMulti(t.columns, lrCols, llCols)
  }

  def run(spark: SparkSession, tr: Tracer): TaskRun = {
    val ((res, unbounded), learnNs) = timed(tr.span("learn") {
      val prep = if (tr.on) prepareTraced(spark, tr) else MultiColumnAutoFJ.prepare(spark, t)
      val res = tr.span("MultiColumnAutoFJ.run") {
        MultiColumnAutoFJ.run(prep, Tau, g = G, gt = t.gt, gtTotal = t.gtTotal,
          selectionFids = Some(ConfigSpace.reduced24.toArray))
      }
      val data = tr.span("SearchData")(SearchData.fromColumns(prep.lrCols, prep.llCols, fullFids, res.weights))
      (res, tr.span("AutoFJ.search_unbounded")(AutoFJ.search(data, thetas, tau = 0.0)))
    })
    // Alg. 3's searches: m single-column starts, then (g − 1) blends for
    // each remaining column in every later round, plus the final search
    // over the full space. A round that improves nothing ends the loop.
    val m = t.nCols
    val rounds = math.min(m, res.selected.size + 1)
    tr.count("MultiColumnAutoFJ.searches", m + (2 to rounds).map(k => (m - k + 1) * (G - 1)).sum + 1)
    tr.count("MultiColumnAutoFJ.rounds", rounds)
    tr.count("AutoFJ.iters_unbounded", unbounded.trace.size)
    tr.count("AutoFJ.prec_gap_sum", res.result.trace.map(s => math.abs(s.estPrecision - s.actPrecision)).sum)
    tr.count("AutoFJ.prec_gap_n", res.result.trace.size)
    val (p, r) = Metrics.precisionRecall(res.result.assignment, t.gt, t.gtTotal)
    TaskRun(name, learnNs, 0L, nR, 0, p, r, prAucOf(unbounded, t.gt, t.gtTotal), 0, 0,
      sha(fingerprint(res.result) ++ fingerprint(unbounded) ++ res.weights.iterator.map(_.toString) ++
        res.selected.iterator.map(_.toString)),
      checkResult(res.result, lIds, rIds).orElse(checkResult(unbounded, lIds, rIds)))
  }
}
