package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SearchDataSpec extends AnyFunSuite {

  private def pd(l: Long, r: Long, ds: Double*) = PairDist(l, r, ds.map(_.toFloat).toArray)

  test("fromSingle builds dense indices and per-slot distance arrays") {
    val lr = Array(pd(10, 100, 0.1, 0.2), pd(11, 100, 0.3, 0.4))
    val ll = Array(pd(10, 11, 0.5, 0.6), pd(11, 10, 0.5, 0.6))
    val d = SearchData.fromSingle(lr, ll, fids = Array(0, 1))
    assert(d.nLeft == 2 && d.nRight == 1 && d.nF == 2)
    assert(d.nLr == 2 && d.nLl == 2)
    assert(d.lrDist(0).toSeq == Seq(0.1f, 0.3f))
    assert(d.lrDist(1).toSeq == Seq(0.2f, 0.4f))
  }

  test("fromSingle respects the fids slice") {
    val lr = Array(pd(10, 100, 0.1, 0.2, 0.3))
    val ll = Array(pd(10, 11, 0.5, 0.6, 0.7))
    val d = SearchData.fromSingle(lr, ll, fids = Array(2))
    assert(d.nF == 1)
    assert(d.lrDist(0)(0) == 0.3f)
    assert(d.llDist(0)(0) == 0.7f)
  }

  test("fromColumns combines distances with the weight vector (Def. 4.1)") {
    val lrA = Array(pd(10, 100, 0.2))
    val lrB = Array(pd(10, 100, 0.6))
    val llA = Array(pd(10, 11, 0.4))
    val llB = Array(pd(10, 11, 0.8))
    val d = SearchData.fromColumns(Array(lrA, lrB), Array(llA, llB),
      fids = Array(0), weights = Array(0.5, 0.5))
    assert(math.abs(d.lrDist(0)(0) - 0.4f) < 1e-6)
    assert(math.abs(d.llDist(0)(0) - 0.6f) < 1e-6)
  }

  test("fromColumns skips zero-weight columns entirely") {
    val lrA = Array(pd(10, 100, 0.2))
    val lrB = Array(pd(10, 100, 0.9))
    val llA = Array(pd(10, 11, 0.4))
    val llB = Array(pd(10, 11, 0.9))
    val d = SearchData.fromColumns(Array(lrA, lrB), Array(llA, llB),
      fids = Array(0), weights = Array(1.0, 0.0))
    assert(d.lrDist(0)(0) == 0.2f)
  }

  test("fromColumns rejects all-zero weights") {
    intercept[IllegalArgumentException] {
      SearchData.fromColumns(Array(Array(pd(1, 2, 0.1))), Array(Array(pd(1, 3, 0.1))),
        Array(0), Array(0.0))
    }
  }

  test("fromColumns rejects misaligned columns") {
    intercept[IllegalArgumentException] {
      SearchData.fromColumns(
        Array(Array(pd(1, 2, 0.1)), Array.empty[PairDist]),
        Array(Array(pd(1, 3, 0.1)), Array(pd(1, 3, 0.1))),
        Array(0), Array(0.5, 0.5))
    }
  }

  test("left ids cover both LR left sides and LL both sides") {
    val lr = Array(pd(10, 100, 0.1))
    val ll = Array(pd(11, 12, 0.5))
    val d = SearchData.fromSingle(lr, ll, Array(0))
    assert(d.lIds.toSet == Set(10L, 11L, 12L))
  }

  test("dense indices follow ascending id order, whatever the pair order") {
    val lr = Array(pd(12, 101, 0.1), pd(10, 100, 0.2), pd(11, 101, 0.3))
    val ll = Array(pd(13, 10, 0.5), pd(10, 13, 0.5))
    val d = SearchData.fromSingle(lr, ll, Array(0))
    assert(d.lIds.toSeq == Seq(10L, 11L, 12L, 13L))
    assert(d.rIds.toSeq == Seq(100L, 101L))
    assert(d.lrLeft.map(d.lIds).toSeq == Seq(12L, 10L, 11L))
    assert(d.lrRight.map(d.rIds).toSeq == Seq(101L, 100L, 101L))
    assert(d.llRight.map(d.lIds).toSeq == Seq(10L, 13L))
  }
}
