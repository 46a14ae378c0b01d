package fleet

import "testing"

// goldenFleetSums are the frozen per-session digests of testSpecs run
// through the engine: every guard mode crossed with no attack and both
// scenarios, with staggered admissions. The equivalence tests compare the
// fleet with standalone runs; this pins both to fixed values, so a change
// that drifts them together still fails. A deliberate numerical change
// must regenerate the list and say why.
var goldenFleetSums = []uint64{
	0x847b5a32198b69e0, 0x4f6c11fb2f069244, 0x60d385166130f492, 0x2b830f982a464a35,
	0xd12d965a3abdf549, 0x270728fefd418e01, 0xf0ce231fce75cd98, 0xc8c99d849a458306,
	0xa63cee8c59fb6fc2, 0x9bd0b3a4e16a94d1, 0x58e083be8880b218, 0x1345fe99e31f398f,
}

// TestGoldenFleetDigests runs the mixed fleet at 1 and 2 workers and
// compares every session's digest with its frozen value.
func TestGoldenFleetDigests(t *testing.T) {
	specs := testSpecs()
	for _, workers := range []int{1, 2} {
		eng, err := New(Config{Specs: specs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		sessions := eng.Sessions()
		if len(sessions) != len(goldenFleetSums) {
			t.Fatalf("workers=%d: %d sessions, %d frozen digests", workers, len(sessions), len(goldenFleetSums))
		}
		for i, s := range sessions {
			if s.Sum() != goldenFleetSums[i] {
				t.Errorf("workers=%d: session %d (attack %s, guard %s) digest %#016x, frozen %#016x",
					workers, i, s.Spec.Attack, s.Spec.Guard, s.Sum(), goldenFleetSums[i])
			}
		}
	}
}
