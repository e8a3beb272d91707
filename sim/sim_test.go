package sim_test

import (
	"strings"
	"testing"

	"sfcmdt/internal/replay"
	"sfcmdt/sim"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	// Build a program through the public Builder.
	b := sim.NewBuilder("api")
	data := b.Word64(3, 5, 7)
	b.La(1, data)
	b.Ld(2, 0, 1)
	b.Ld(3, 8, 1)
	b.Mul(4, 2, 3)
	b.Sd(4, 16, 1)
	b.Ld(5, 16, 1)
	b.Halt()
	img := b.MustBuild()

	// Golden model: the reference stream every run binds.
	s, err := replay.Materialize(img, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Halted {
		t.Fatal("program should halt")
	}

	// Pipeline on both subsystems.
	for _, v := range []sim.Variant{sim.MDTSFCEnf, sim.LSQ48x32} {
		st, err := sim.Run(sim.Baseline(v, 100), img)
		if err != nil {
			t.Fatalf("%s: %v", v.Label, err)
		}
		if st.Retired != uint64(s.Len()) {
			t.Errorf("%s retired %d, stream has %d", v.Label, st.Retired, s.Len())
		}
	}
}

func TestPublicAssembler(t *testing.T) {
	img, err := sim.Assemble("t", "li r1, 7\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sim.Disassemble(img), "halt") {
		t.Error("disassembly missing halt")
	}
	if _, err := sim.Assemble("t", "bogus r1"); err == nil {
		t.Error("assembler accepted garbage")
	}
}

func TestWorkloadRegistryExposed(t *testing.T) {
	if len(sim.Workloads()) != 20 {
		t.Errorf("got %d workloads", len(sim.Workloads()))
	}
	if _, ok := sim.Workload("mcf"); !ok {
		t.Error("mcf missing")
	}
	if _, ok := sim.Workload("nope"); ok {
		t.Error("phantom workload")
	}
}

func TestExperimentViaPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	r := sim.NewRunner(2000)
	tbl, err := sim.Assoc16(r)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	if !strings.Contains(sb.String(), "bzip2") {
		t.Error("table missing bzip2 row")
	}
}
