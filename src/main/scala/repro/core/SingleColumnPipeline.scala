package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** End-to-end single-column AutoFJ pipeline (§3): the shared [[Prepare]]
  * path with m = 1 (blocking, distance tables), negative rules, then the
  * greedy search (driver).
  */
object SingleColumnPipeline {

  /** Everything the search and the baselines consume, computed once per
    * (L, R) task: prepped records, candidate pairs with full distance
    * vectors (both pre- and post-negative-rule filtering), and the learned
    * rules.
    */
  final case class Prepared(
      lText: Map[Long, String],
      rText: Map[Long, String],
      lPrepped: Map[Long, Prepped],
      rPrepped: Map[Long, Prepped],
      ctx: FeatureContext,
      lrAll: Array[PairDist],
      lrFiltered: Array[PairDist],
      llPairs: Array[PairDist],
      rules: Set[NegativeRules.Rule],
      blockSim: Map[(Long, Long), Double],
  )

  private val recSchema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("text", StringType, nullable = true),
  ))

  /** (id, text) pairs as a DataFrame with the blocking-ready schema. */
  def toDF(spark: SparkSession, recs: Seq[(Long, String)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(recs.map { case (id, t) => Row(id, t) }, 8),
      recSchema)

  /** [[Prepare]] with m = 1, then negative rules: learned from the L–L
    * candidates, applied to the L–R candidates.
    */
  def prepare(
      spark: SparkSession,
      left: Seq[(Long, String)],
      right: Seq[(Long, String)],
      beta: Double = 1.0,
  ): Prepared = {
    val t = Prepare(spark, 1, left.map { case (id, s) => (id, Seq(s)) },
      right.map { case (id, s) => (id, Seq(s)) }, beta)
    val lText = left.toMap
    val rText = right.toMap
    val lrAll = t.lrCols(0)
    val llPairs = t.llCols(0)
    val rules = NegativeRules.learn(llPairs.toSeq.map(p => (lText(p.leftId), lText(p.rightId))))
    val lrFiltered = lrAll.filterNot(p => NegativeRules.violates(rules, lText(p.leftId), rText(p.rightId)))
    Prepared(lText, rText, t.lPrepped.view.mapValues(_(0)).toMap, t.rPrepped.view.mapValues(_(0)).toMap,
      t.ctxs(0), lrAll, lrFiltered, llPairs, rules, t.blockSim)
  }

  private val pairSchema = StructType(Seq(
    StructField("leftId", LongType, nullable = false),
    StructField("rightId", LongType, nullable = false),
  ))

  def toPairDF(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(pairs.map { case (a, b) => Row(a, b) }, 8),
      pairSchema)

  /** Run AutoFJ (Algorithm 1) over a prepared task.
    *
    * @param fids          function ids searched (full 140 or reduced 24)
    * @param negativeRules false reproduces the AutoFJ-NR ablation
    * @param gt / gtTotal  evaluation-only: enables the actual-P/R trace
    */
  def autoFJ(
      prepared: Prepared,
      tau: Double,
      fids: Array[Int] = ConfigSpace.full.map(_.id).toArray,
      steps: Int = 50,
      negativeRules: Boolean = true,
      gt: Map[Long, Long] = Map.empty,
      gtTotal: Int = 0,
  ): AutoFJ.Result = {
    val lr = if (negativeRules) prepared.lrFiltered else prepared.lrAll
    val data = SearchData.fromSingle(lr, prepared.llPairs, fids)
    AutoFJ.search(data, ConfigSpace.thresholds(steps), tau, gt, gtTotal)
  }
}
