package chaos

import (
	"testing"
	"time"

	"cordial/internal/hbm"
)

func planScenario(t *testing.T, seed uint64) *Scenario {
	t.Helper()
	sc := NewScenario("plan-test", "", seed)
	sc.Fleet.Nodes = 3
	sc.FleetGen = FleetGenSpec{TotalBanks: 40, Templates: []TemplateSpec{
		{"agg", 50, "single"}, {"spread", 20, "scattered"}, {"any", 10, "mixed"}, {"quiet", 20, "benign"}}}
	sc.Chaos = []ChaosAction{
		{At: time.Second, Action: ActKillNode, Target: "random"},
		{At: 2 * time.Second, Action: ActKillNode, Target: "random"},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestBuildPlanDeterministic is the reproducibility contract: the same
// scenario and seed must yield the same events and the same resolved
// chaos schedule, digest-for-digest; a different seed must not.
func TestBuildPlanDeterministic(t *testing.T) {
	a, err := BuildPlan(planScenario(t, 42), hbm.HBM2E)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(planScenario(t, 42), hbm.HBM2E)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("same seed, different digests: %s vs %s", a.Digest, b.Digest)
	}
	if len(a.Fleet.Events) != len(b.Fleet.Events) {
		t.Errorf("same seed, different event counts: %d vs %d", len(a.Fleet.Events), len(b.Fleet.Events))
	}
	for i := range a.Chaos {
		if a.Chaos[i].Target != b.Chaos[i].Target {
			t.Errorf("chaos[%d] target differs: %s vs %s", i, a.Chaos[i].Target, b.Chaos[i].Target)
		}
	}

	c, err := BuildPlan(planScenario(t, 43), hbm.HBM2E)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Errorf("different seeds, same digest %s", a.Digest)
	}
}

func TestBuildPlanShape(t *testing.T) {
	plan, err := BuildPlan(planScenario(t, 7), hbm.HBM2E)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fleet.Banks != 40 {
		t.Errorf("banks = %d, want 40", plan.Fleet.Banks)
	}
	if plan.Fleet.Faulty == 0 || plan.Fleet.Faulty >= 40 {
		t.Errorf("faulty = %d, want within (0,40) for a mix with benign banks", plan.Fleet.Faulty)
	}
	total := 0
	for _, n := range plan.Fleet.PerTemplate {
		total += n
	}
	if total != 40 {
		t.Errorf("template counts sum to %d, want 40", total)
	}
	if len(plan.Fleet.Events) == 0 {
		t.Fatal("no events generated")
	}
	for i := 1; i < len(plan.Fleet.Events); i++ {
		if plan.Fleet.Events[i].Time.Before(plan.Fleet.Events[i-1].Time) {
			t.Fatalf("events not time-sorted at %d", i)
		}
	}
	geo := hbm.DefaultGeometry
	for _, ev := range plan.Fleet.Events {
		if err := ev.Validate(geo); err != nil {
			t.Fatalf("generated event invalid: %v", err)
		}
	}
	// "random" targets must be pinned to concrete nodes.
	for i, a := range plan.Chaos {
		if a.Target == "random" {
			t.Errorf("chaos[%d] target still random after BuildPlan", i)
		}
	}
}
