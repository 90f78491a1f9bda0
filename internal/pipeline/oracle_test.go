package pipeline

import "testing"

func TestOracleEliminationIsCleanAndFaster(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	base, err := Run(tr, a, ContendedConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ContendedConfig()
	cfg.Elim = true
	cfg.OracleElim = true
	st, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != int64(tr.Len()) {
		t.Fatalf("committed %d of %d", st.Committed, tr.Len())
	}
	// Oracle elimination never mispredicts and eliminates every dead
	// candidate.
	if st.DeadMispredicts != 0 {
		t.Errorf("oracle elimination recovered %d times", st.DeadMispredicts)
	}
	dead := int64(0)
	for seq := 0; seq < tr.Len(); seq++ {
		if a.Facts[seq].Kind().Dead() {
			dead++
		}
	}
	if st.Eliminated != dead {
		t.Errorf("eliminated %d, oracle-dead %d", st.Eliminated, dead)
	}
	if st.Cycles > base.Cycles {
		t.Errorf("oracle elimination slower than baseline: %d vs %d", st.Cycles, base.Cycles)
	}
}

func TestOracleBeatsOrMatchesPredictor(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	dipCfg := ContendedConfig()
	dipCfg.Elim = true
	dipSt, err := Run(tr, a, dipCfg)
	if err != nil {
		t.Fatal(err)
	}
	oraCfg := dipCfg
	oraCfg.OracleElim = true
	oraSt, err := Run(tr, a, oraCfg)
	if err != nil {
		t.Fatal(err)
	}
	if oraSt.Eliminated < dipSt.Eliminated {
		t.Errorf("oracle eliminated fewer (%d) than the predictor (%d)",
			oraSt.Eliminated, dipSt.Eliminated)
	}
	if oraSt.Cycles > dipSt.Cycles {
		t.Errorf("oracle slower than predictor: %d vs %d cycles",
			oraSt.Cycles, dipSt.Cycles)
	}
}

func TestOracleElimValidatesWithoutDIPConfig(t *testing.T) {
	tr, a := prep(t, loopSrc, 1000)
	cfg := ContendedConfig()
	cfg.Elim = true
	cfg.OracleElim = true
	cfg.DIP.LogSets = -99 // invalid, but unused in oracle mode
	if _, err := Run(tr, a, cfg); err != nil {
		t.Errorf("oracle mode rejected: %v", err)
	}
}
