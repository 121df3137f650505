package repro.core

import repro.core.ConfigSpace.JoinConfig

/** Algorithm 1: greedy recall-maximizing search over join configurations,
  * with label-free precision estimation via the 2d-ball rule (Eq. 8–13).
  *
  * The search runs on the driver over the collected candidate-pair distance
  * tables ([[SearchData]]); everything upstream (blocking, negative rules,
  * per-pair distances) and downstream (applying the learned program) runs
  * as Spark DataFrame pipelines.
  */
object AutoFJ {

  /** One greedy iteration, for the PEPCC/RERCC traces of Table 2. Actual
    * precision/recall are -1 when no ground truth was supplied.
    */
  final case class IterStat(
      iter: Int,
      config: JoinConfig,
      estPrecision: Double,
      estTP: Double,
      actPrecision: Double,
      actRecall: Double,
      newJoins: Int,
  )

  /** One committed step of the greedy loop.
    *
    * @param config  the configuration it added to the program
    * @param newPrec estimated precision of the program with it added,
    *                computed before the commit — the value τ is tested on
    * @param joins   (rId, lId, score) of every r it joined or re-joined
    */
  final case class Step(config: JoinConfig, newPrec: Double, joins: Vector[(Long, Long, Double)])

  /** The learned fuzzy-join program and its induced assignment.
    *
    * @param program    selected configurations (a disjunction, Def. 2.3)
    * @param assignment rId → lId for every joined right record
    * @param scores     rId → estimated precision of its final join
    * @param trace      per-iteration estimated/actual quality
    * @param steps      the committed configurations in program order, from
    *                   which [[upTo]] replays a prefix
    */
  final case class Result(
      program: Vector[JoinConfig],
      assignment: Map[Long, Long],
      scores: Map[Long, Double],
      trace: Vector[IterStat],
      estPrecision: Double,
      estTP: Double,
      steps: Vector[Step],
  ) {

    /** The result `search(data, thetas, tau, gt, gtTotal)` returns, read
      * off this run of `search` (unbounded, or bounded by a target ≤ tau):
      * τ picks no configuration, it only stops the greedy loop before the
      * first step whose `newPrec` is ≤ τ, so the τ-bounded run is a prefix
      * of the unbounded one.
      */
    def upTo(tau: Double): Result = {
      val k = if (tau > 0) steps.indexWhere(_.newPrec <= tau) else -1
      if (k < 0) this
      else {
        val last = trace.lift(k - 1)
        replay(trace.take(k), steps.take(k),
          last.fold(0.0)(_.estPrecision), last.fold(0.0)(_.estTP))
      }
    }
  }

  /** The result of committing `steps` in order on an empty assignment. */
  private def replay(
      trace: Vector[IterStat], steps: Vector[Step], estPrecision: Double, estTP: Double): Result = {
    val joins = scala.collection.mutable.TreeMap.empty[Long, (Long, Double)]
    for (s <- steps; (r, l, p) <- s.joins) joins(r) = (l, p)
    Result(steps.map(_.config), joins.iterator.map { case (r, (l, _)) => r -> l }.toMap,
      joins.iterator.map { case (r, (_, p)) => r -> p }.toMap, trace, estPrecision, estTP, steps)
  }

  private val Eps = 1e-9

  /** ⟨f, θ⟩ in the searched space; `prec(i)` is the estimated precision
    * 1/|2θ-ball| of joining the i-th r of f's joined-order to its nearest l.
    */
  private final case class Candidate(f: Int, config: JoinConfig, prec: Array[Double])

  /** Shared pre-computation (§3.2's "pre-compute precision estimation"):
    * per-function nearest-l for each r, the joined-order of right records,
    * and each candidate configuration's per-r precision estimate.
    */
  private final class Prep(data: SearchData, thetas: Array[Double]) {
    val nF: Int = data.nF
    val nR: Int = data.nRight
    val nL: Int = data.nLeft

    // Nearest-l ties go to the smaller dense index, i.e. the smaller leftId,
    // as in FuzzyJoinProgram.apply.
    val bestL: Array[Array[Int]] = Array.fill(nF)(Array.fill(nR)(-1))
    val bestD: Array[Array[Float]] = Array.fill(nF)(Array.fill(nR)(Float.MaxValue))
    locally {
      var s = 0
      while (s < nF) {
        val dists = data.lrDist(s); val bl = bestL(s); val bd = bestD(s)
        var i = 0
        while (i < data.nLr) {
          val r = data.lrRight(i); val d = dists(i)
          if (d < bd(r) || (d == bd(r) && (bl(r) < 0 || data.lrLeft(i) < bl(r)))) {
            bd(r) = d; bl(r) = data.lrLeft(i)
          }
          i += 1
        }
        s += 1
      }
    }

    /** r's with a candidate, ascending by bestD — the set joined by
      * ⟨f, θ⟩ is a prefix of this order.
      */
    val rOrder: Array[Array[Int]] = Array.tabulate(nF) { f =>
      val rs = (0 until nR).filter(bestL(f)(_) >= 0).toArray
      rs.sortBy(bestD(f)(_))
    }

    private val ballOff: Array[Int] = {
      val off = new Array[Int](nL + 1)
      var i = 0
      while (i < data.nLl) { off(data.llLeft(i) + 1) += 1; i += 1 }
      i = 1
      while (i <= nL) { off(i) += off(i - 1); i += 1 }
      off
    }

    /** Per f, the L–L distances sorted within each left record's slice. */
    private val ballDist: Array[Array[Float]] = Array.tabulate(nF) { f =>
      val out = new Array[Float](data.nLl)
      val pos = java.util.Arrays.copyOf(ballOff, nL)
      val dists = data.llDist(f)
      var i = 0
      while (i < data.nLl) {
        val l = data.llLeft(i)
        out(pos(l)) = dists(i); pos(l) += 1
        i += 1
      }
      var l = 0
      while (l < nL) { java.util.Arrays.sort(out, ballOff(l), ballOff(l + 1)); l += 1 }
      out
    }

    /** #L records within radius x of l, counting l itself (Eq. 8/9).
      * Distances are stored as floats; the radius is rounded to float so a
      * neighbor at exactly 2θ is counted (0.1f > 0.1d otherwise).
      */
    private def ballCount(f: Int, l: Int, x: Double): Int = {
      val xf = x.toFloat
      val arr = ballDist(f)
      var lo = ballOff(l); var hi = ballOff(l + 1)
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (arr(mid) <= xf) lo = mid + 1 else hi = mid
      }
      1 + (lo - ballOff(l))
    }

    /** Candidate configurations: per f, only threshold steps where the
      * joined prefix grows — among thresholds with identical joined sets
      * the smallest dominates (smaller 2θ-balls ⇒ higher estimated
      * precision), so the rest are noise.
      */
    val candidates: Array[Candidate] = {
      val out = scala.collection.mutable.ArrayBuffer.empty[Candidate]
      for (f <- 0 until nF) {
        val order = rOrder(f)
        var len = 0
        for (k <- thetas.indices) {
          val prev = len
          while (len < order.length && bestD(f)(order(len)) <= thetas(k).toFloat) len += 1
          if (len > prev) out += Candidate(f, JoinConfig(data.fids(f), thetas(k)),
            Array.tabulate(len)(i => 1.0 / ballCount(f, bestL(f)(order(i)), 2.0 * thetas(k))))
        }
      }
      out.toArray
    }
  }

  /** The greedy state: each r's current join (dense l, or -1) and its
    * estimated precision, and the estimated TP/FP of the joins so far.
    */
  private final class State(data: SearchData, prep: Prep) {
    val assignedL: Array[Int] = Array.fill(prep.nR)(-1)
    val assignedP: Array[Double] = new Array[Double](prep.nR)
    var tp = 0.0
    var fp = 0.0
    var nAssigned = 0

    def precision: Double = tp / math.max(tp + fp, Eps)

    /** (ΔTP, ΔFP, newJoins) of adding candidate ci, honoring the conflict
      * rule of §3.1 (replace an assignment only with a more confident one).
      */
    def delta(ci: Int): (Double, Double, Int) = {
      val c = prep.candidates(ci)
      val order = prep.rOrder(c.f)
      var dTP = 0.0; var dFP = 0.0; var nNew = 0
      var i = 0
      while (i < c.prec.length) {
        val r = order(i); val p = c.prec(i)
        if (assignedL(r) < 0) { dTP += p; dFP += 1.0 - p; nNew += 1 }
        else if (p > assignedP(r)) { dTP += p - assignedP(r); dFP -= p - assignedP(r) }
        i += 1
      }
      (dTP, dFP, nNew)
    }

    /** Add candidate ci as [[delta]] scores it; returns the step. */
    def commit(ci: Int, newPrec: Double): Step = {
      val c = prep.candidates(ci)
      val order = prep.rOrder(c.f)
      val joins = Vector.newBuilder[(Long, Long, Double)]
      var i = 0
      while (i < c.prec.length) {
        val r = order(i); val p = c.prec(i)
        val l = prep.bestL(c.f)(r)
        if (assignedL(r) < 0 || p > assignedP(r)) {
          if (assignedL(r) < 0) { tp += p; fp += 1.0 - p; nAssigned += 1 }
          else { tp += p - assignedP(r); fp -= p - assignedP(r) }
          assignedL(r) = l; assignedP(r) = p
          joins += ((data.rIds(r), data.lIds(l), p))
        }
        i += 1
      }
      Step(c.config, newPrec, joins.result())
    }
  }

  /** Run the greedy search (Algorithm 1).
    *
    * @param data    candidate pairs + distances for the function slots
    * @param thetas  ascending threshold grid (s = 50 steps by default)
    * @param tau     precision target; pass tau <= 0 for an unbounded run
    *                (used to build PR curves), which only stops when no
    *                remaining configuration joins a new right record. Its
    *                `upTo(tau)` equals the run with that target.
    * @param gt      optional ground truth (rId → lId) for trace actuals
    * @param gtTotal |{r : J_G(r) ≠ ∅}| — denominator of normalized recall
    */
  def search(
      data: SearchData,
      thetas: Array[Double],
      tau: Double,
      gt: Map[Long, Long] = Map.empty,
      gtTotal: Int = 0,
  ): Result = {
    val prep = new Prep(data, thetas)
    val st = new State(data, prep)
    val nR = prep.nR

    // Dense gt l per r; negative when r has none or it was blocked away.
    val gtDense: Array[Int] = Array.tabulate(nR)(r =>
      gt.get(data.rIds(r)).fold(-1)(java.util.Arrays.binarySearch(data.lIds, _)))

    val trace = Vector.newBuilder[IterStat]
    val steps = Vector.newBuilder[Step]
    var iter = 0
    var done = false
    while (!done) {
      var best = -1
      var bestProfit = 0.0
      var bestNew = 0
      var bestTP = 0.0
      var bestFP = 0.0
      var ci = 0
      while (ci < prep.candidates.length) {
        val (dTP, dFP, nNew) = st.delta(ci)
        // Only configs joining a new right record can increase profit
        // (the paper's |R|-iterations termination argument); a committed
        // one joins none, so it is never picked again.
        if (nNew > 0) {
          val profit = (st.tp + dTP) / math.max(st.fp + dFP, Eps)
          if (profit > bestProfit || (profit == bestProfit && nNew > bestNew)) {
            best = ci; bestProfit = profit; bestNew = nNew; bestTP = dTP; bestFP = dFP
          }
        }
        ci += 1
      }
      val newPrec = (st.tp + bestTP) / math.max(st.tp + bestTP + st.fp + bestFP, Eps)
      if (best < 0 || (tau > 0 && newPrec <= tau)) done = true
      else {
        steps += st.commit(best, newPrec)
        iter += 1
        val (actP, actR) =
          if (gt.isEmpty) (-1.0, -1.0)
          else {
            var correct = 0
            var r = 0
            while (r < nR) {
              if (st.assignedL(r) >= 0 && st.assignedL(r) == gtDense(r)) correct += 1
              r += 1
            }
            (correct.toDouble / math.max(st.nAssigned, 1),
             if (gtTotal > 0) correct.toDouble / gtTotal else -1.0)
          }
        trace += IterStat(iter, prep.candidates(best).config, st.precision, st.tp,
          actP, actR, bestNew)
      }
    }
    replay(trace.result(), steps.result(), st.precision, st.tp)
  }

  /** The AutoFJ-UC ablation: exhaustively pick the *single* configuration
    * with the highest estimated TP among those whose estimated precision
    * exceeds `tau`, each scored by `delta` on the empty state. None when
    * no configuration qualifies.
    */
  def searchOneConfig(data: SearchData, thetas: Array[Double], tau: Double): Option[Result] = {
    val prep = new Prep(data, thetas)
    val st = new State(data, prep)
    var best = -1
    var bestTP = 0.0
    var bestPrec = 0.0
    var ci = 0
    while (ci < prep.candidates.length) {
      val (dTP, dFP, _) = st.delta(ci)
      val prec = dTP / math.max(dTP + dFP, Eps)
      if (prec > tau && dTP > bestTP) { best = ci; bestTP = dTP; bestPrec = prec }
      ci += 1
    }
    if (best < 0) None
    else {
      val step = st.commit(best, bestPrec)
      Some(replay(Vector.empty, Vector(step), st.precision, st.tp))
    }
  }
}
