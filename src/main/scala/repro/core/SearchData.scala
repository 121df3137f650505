package repro.core

/** Driver-side, struct-of-arrays view of the blocked candidate pairs and
  * their distances, as consumed by the greedy search.
  *
  * Left records are densely indexed in `lIds`, right records in `rIds`,
  * both in ascending id order.
  * `lrDist(fSlot)(pairIdx)` / `llDist(fSlot)(pairIdx)` hold the distance of
  * the pair under the fSlot-th join function of the searched space (slots
  * align with the `fids` array handed to the search, not with raw function
  * ids).
  */
final class SearchData(
    val lIds: Array[Long],
    val rIds: Array[Long],
    val lrLeft: Array[Int],
    val lrRight: Array[Int],
    val lrDist: Array[Array[Float]],
    val llLeft: Array[Int],
    val llRight: Array[Int],
    val llDist: Array[Array[Float]],
    val fids: Array[Int],
) {
  def nLeft: Int = lIds.length
  def nRight: Int = rIds.length
  def nF: Int = fids.length
  def nLr: Int = lrLeft.length
  def nLl: Int = llLeft.length
}

object SearchData {

  /** Build from single-column distance tables (the L–R and L–L candidate
    * pair vectors produced by [[DistanceTable.compute]]).
    */
  def fromSingle(lr: Array[PairDist], ll: Array[PairDist], fids: Array[Int]): SearchData =
    fromColumns(Array(lr), Array(ll), fids, Array(1.0))

  /** Build from per-column distance tables combined with a weight vector:
    * F_w(l, r) = Σ_j w_j · f(l[j], r[j])  (Definition 4.1). The per-column
    * pair arrays must be index-aligned (same candidate pair at the same
    * position in every column).
    */
  def fromColumns(
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
      fids: Array[Int],
      weights: Array[Double],
  ): SearchData = {
    require(lrCols.nonEmpty && lrCols.length == weights.length)
    val cols = lrCols.indices.filter(c => weights(c) != 0.0).toArray
    require(cols.nonEmpty, "at least one column must have non-zero weight")

    // Dense indices follow ascending id order: the search then depends only
    // on the set of pairs, not their order, and its index-order tie-breaks
    // go to the smallest id.
    val lIds = (lrCols(0).iterator.map(_.leftId) ++
      llCols(0).iterator.flatMap(p => Iterator(p.leftId, p.rightId))).toArray.sorted.distinct
    val rIds = lrCols(0).map(_.rightId).sorted.distinct
    def lIdx(id: Long): Int = java.util.Arrays.binarySearch(lIds, id)
    def rIdx(id: Long): Int = java.util.Arrays.binarySearch(rIds, id)

    def combine(
        colPairs: Array[Array[PairDist]],
        rightIdx: Long => Int,
    ): (Array[Int], Array[Int], Array[Array[Float]]) = {
      val n = colPairs(0).length
      cols.foreach(c => require(colPairs(c).length == n, "column pair arrays must be aligned"))
      val left = new Array[Int](n)
      val right = new Array[Int](n)
      val dist = Array.ofDim[Float](fids.length, n)
      var i = 0
      while (i < n) {
        val p0 = colPairs(0)(i)
        left(i) = lIdx(p0.leftId)
        right(i) = rightIdx(p0.rightId)
        var s = 0
        while (s < fids.length) {
          val f = fids(s)
          var acc = 0.0
          var ci = 0
          while (ci < cols.length) {
            val c = cols(ci)
            acc += weights(c) * colPairs(c)(i).d(f)
            ci += 1
          }
          dist(s)(i) = acc.toFloat
          s += 1
        }
        i += 1
      }
      (left, right, dist)
    }

    val (lrL, lrR, lrD) = combine(lrCols, rIdx)
    val (llL, llR, llD) = combine(llCols, lIdx)

    new SearchData(lIds, rIds, lrL, lrR, lrD, llL, llR, llD, fids)
  }
}
