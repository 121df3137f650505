package repro.core

import repro.SparkSpec
import repro.data.{Benchmarks, MultiColGen}

/** Golden outputs: fingerprints of the program, assignment and scores of
  * fixed-seed tasks. The single-column ones are those of the search over
  * the candidate pairs sorted by (leftId, rightId); the search must give
  * them for the pairs in any order.
  */
class GoldenSpec extends SparkSpec {

  /** SHA-256 prefix of a result's program, assignment and scores. */
  private def fingerprint(r: AutoFJ.Result): String = {
    val parts = r.program.iterator.map(c => s"${c.fId}@${c.theta}") ++
      r.assignment.toSeq.sorted.iterator.map { case (a, b) => s"$a>$b" } ++
      r.scores.toSeq.sorted.iterator.map { case (a, s) => s"$a:$s" }
    val md = java.security.MessageDigest.getInstance("SHA-256")
    parts.foreach { p => md.update(p.getBytes("UTF-8")); md.update(0.toByte) }
    md.digest().take(8).map("%02x".format(_)).mkString
  }

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
