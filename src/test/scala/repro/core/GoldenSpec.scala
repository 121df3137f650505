package repro.core

import repro.SparkSpec
import repro.data.{Benchmarks, MultiColGen}

/** Golden outputs: fingerprints of the program, assignment and scores of
  * fixed-seed tasks. The single-column ones are those of the search over
  * the candidate pairs sorted by (leftId, rightId); the search must give
  * them for the pairs in any order.
  */
class GoldenSpec extends SparkSpec {

  private def sha(parts: Iterator[String]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    parts.foreach { p => md.update(p.getBytes("UTF-8")); md.update(0.toByte) }
    md.digest().take(8).map("%02x".format(_)).mkString
  }

  private def parts(r: AutoFJ.Result): Iterator[String] =
    r.program.iterator.map(c => s"${c.fId}@${c.theta}") ++
      r.assignment.toSeq.sorted.iterator.map { case (a, b) => s"$a>$b" } ++
      r.scores.toSeq.sorted.iterator.map { case (a, s) => s"$a:$s" }

  /** SHA-256 prefix of a result's program, assignment and scores. */
  private def fingerprint(r: AutoFJ.Result): String = sha(parts(r))

  /** [[fingerprint]] plus the result's estimates and every field of every
    * trace entry.
    */
  private def fingerprintWithTrace(r: AutoFJ.Result): String =
    sha(parts(r) ++ Iterator(s"${r.estPrecision}/${r.estTP}") ++
      r.trace.iterator.map(_.productIterator.mkString("|")))

  test("single-column golden outputs (tiny tasks, tau = 0.9 and unbounded)") {
    val golden = Map(
      21L -> ("78abf5569b8d2721", "79220edea2aa3a4b"),
      31L -> ("5632e340e4b94854", "76afb64622988078"))
    for ((seed, (tau, unbounded)) <- golden) {
      val task = Benchmarks.tiny(seed = seed)
      val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
      assert(fingerprint(SingleColumnPipeline.autoFJ(prepared, 0.9)) == tau, s"tiny($seed) tau = 0.9")
      assert(fingerprint(SingleColumnPipeline.autoFJ(prepared, 0.0)) == unbounded, s"tiny($seed) unbounded")
    }
  }

  test("single-column golden outputs with traces (tiny tasks: UC, NR, reduced-24)") {
    // UC and NR at tau = 0.9; reduced-24 at tau = 0.9 and unbounded.
    val golden = Map(
      21L -> Seq("3164f02992d7c1a3", "3dfcdf17c8ee10a9", "403123f83d73c101", "7ae0c7c788845e5a"),
      31L -> Seq("7293f22a9994aa51", "b3e5b2b01151e133", "40f3ac73bfac22a6", "6b77a03b088ac495"))
    val full = ConfigSpace.full.map(_.id).toArray
    val r24 = ConfigSpace.reduced24.toArray
    for ((seed, expected) <- golden) {
      val task = Benchmarks.tiny(seed = seed)
      val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
      def autoFJ(tau: Double, fids: Array[Int], negativeRules: Boolean): AutoFJ.Result =
        SingleColumnPipeline.autoFJ(prepared, tau, fids = fids, negativeRules = negativeRules,
          gt = task.gt, gtTotal = task.gtTotal)
      val uc = AutoFJ.searchOneConfig(SearchData.fromSingle(prepared.lrFiltered, prepared.llPairs, full),
        ConfigSpace.thresholds(50), 0.9)
      assert(uc.isDefined, s"tiny($seed) UC")
      val got = Seq(uc.get, autoFJ(0.9, full, negativeRules = false),
        autoFJ(0.9, r24, negativeRules = true), autoFJ(0.0, r24, negativeRules = true))
      assert(got.map(fingerprintWithTrace) == expected, s"tiny($seed) UC, NR, reduced-24 tau = 0.9 and unbounded")
    }
  }

  test("multi-column golden output (FZ-small)") {
    val spec = MultiColGen.specs.head.copy(
      name = "FZ-small", nL = 150, nExtra = 40, nMatches = 40, nNonMatches = 60)
    val task = MultiColGen.generate(spec)
    val res = MultiColumnAutoFJ.run(MultiColumnAutoFJ.prepare(spark, task), tau = 0.9,
      gt = task.gt, gtTotal = task.gtTotal)
    assert(fingerprint(res.result) == "e5fd95b54002edcd")
    assert(res.weights.toSeq == Seq(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert(res.selected == Vector(0))
  }
}
