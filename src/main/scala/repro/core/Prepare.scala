package repro.core

import org.apache.spark.sql.SparkSession

/** The one prepare path of AutoFJ, for records of m ≥ 1 columns
  * (single-column AutoFJ is the case m = 1).
  *
  * Blocking runs once on each record's concatenated text (for m = 1, the
  * value itself). Every column gets its own prepped records and IDF
  * context, and one Spark pass per pair table computes all columns'
  * distances, so the per-column tables are index-aligned. Pairs keep the
  * order Spark returns them in: the search depends only on the set of
  * pairs ([[SearchData.fromColumns]] indexes ids in ascending order).
  */
object Prepare {

  /** Candidate pairs of one (L, R) task with their distance tables.
    *
    * @param blockSim (leftId, rightId) → blocking similarity of each L–R pair
    * @param lrCols   one L–R table per column, index-aligned
    * @param llCols   one L–L table per column, index-aligned
    */
  final case class Tables(
      blockSim: Map[(Long, Long), Double],
      lPrepped: Map[Long, Array[Prepped]],
      rPrepped: Map[Long, Array[Prepped]],
      ctxs: Array[FeatureContext],
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
  )

  def apply(
      spark: SparkSession,
      nCols: Int,
      left: Seq[(Long, Seq[String])],
      right: Seq[(Long, Seq[String])],
      beta: Double = 1.0,
  ): Tables = {
    def blockText(v: Seq[String]): String = if (v.length == 1) v.head else v.mkString(" ")
    val dfL = SingleColumnPipeline.toDF(spark, left.map { case (id, v) => (id, blockText(v)) })
    val dfR = SingleColumnPipeline.toDF(spark, right.map { case (id, v) => (id, blockText(v)) })
    val (lrCand, llCand) = Blocking.block(spark, dfL, dfR, beta)
    val lrRows = lrCand.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    val llRows = llCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1)))

    val lPrepped = left.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap
    val rPrepped = right.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap
    val ctxs = Array.tabulate(nCols)(c =>
      FeatureContext.build(lPrepped.values.map(_(c)) ++ rPrepped.values.map(_(c))))

    val lrDf = SingleColumnPipeline.toPairDF(spark, lrRows.map(t => (t._1, t._2)).toSeq)
    val llDf = SingleColumnPipeline.toPairDF(spark, llRows.toSeq)
    Tables(lrRows.map(t => (t._1, t._2) -> t._3).toMap, lPrepped, rPrepped, ctxs,
      DistanceTable.computeMulti(spark, lrDf, lPrepped, rPrepped, ctxs),
      DistanceTable.computeMulti(spark, llDf, lPrepped, lPrepped, ctxs))
  }
}
