// Quickstart: generate a small synthetic MareNostrum-style world, run the
// paper's cost–benefit evaluation, then train the RL policy, persist it as
// a versioned model artifact, and serve it through the concurrent
// Controller API the way a production daemon would.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	uerl "repro"
)

func main() {
	// BudgetCI keeps everything in seconds: a ~120-node cluster over two
	// years with the paper's fault-model calibration. Options stack on the
	// paper's defaults; see WithScale, WithMitigationCost, ... for more.
	fmt.Println("== generating synthetic cluster history ==")
	sys := uerl.NewSystem(uerl.WithBudgetCI(), uerl.WithSeed(42))
	st := sys.LogStats()
	fmt.Printf("error log: %d events, %d corrected errors, %d uncorrected errors (%d after burst reduction)\n\n",
		st.Events, st.TotalCEs, st.UEs, st.FirstUEs)

	fmt.Println("== cost-benefit evaluation (time-series nested cross-validation) ==")
	rep := sys.Evaluate()
	rep.Render(os.Stdout)
	if never, ok := rep.Find("Never-mitigate"); ok {
		if rl, ok := rep.Find("RL"); ok && never.TotalNodeHours > 0 {
			fmt.Printf("\nRL saves %.0f%% of lost compute vs no mitigation\n",
				100*(1-rl.TotalNodeHours/never.TotalNodeHours))
		}
	}

	// Train the RL policy and round-trip it through the versioned model
	// format — the artifact a fleet daemon would ship to its nodes. Any
	// §4.2 kind works here: try uerl.PolicySC20RF or uerl.PolicyAlways.
	fmt.Println("\n== training and persisting the serving policy ==")
	trained, err := sys.TrainPolicy(uerl.PolicyRL)
	if err != nil {
		fail(err)
	}
	path := "quickstart-model.json"
	if err := uerl.SaveModelFile(path, trained); err != nil {
		fail(err)
	}
	defer os.Remove(path)
	policy, err := uerl.LoadModelFile(path)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model artifact: kind=%s version=%s\n", policy.Kind(), policy.Version())

	fmt.Println("\n== live controller demo ==")
	ctl := uerl.NewController(policy)

	now := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	// Node 7 is healthy; node 8 shows an escalating corrected-error storm
	// plus a firmware warning — the pre-UE signature. Batch ingestion
	// takes each shard's lock once for the whole batch.
	events := []uerl.Event{
		{Time: now, Node: 7, Type: uerl.NodeBoot, DIMM: -1, Rank: -1, Bank: -1, Row: -1, Col: -1},
	}
	for i := 0; i < 40; i++ {
		events = append(events, uerl.Event{
			Time: now.Add(time.Duration(i) * time.Minute),
			Node: 8, DIMM: 64, Type: uerl.CorrectedError, Count: 500,
			Rank: 0, Bank: 3, Row: 4000 + i%3, Col: 17,
		})
	}
	events = append(events, uerl.Event{Time: now.Add(40 * time.Minute), Node: 8, DIMM: 64,
		Type: uerl.UEWarning, Rank: -1, Bank: -1, Row: -1, Col: -1})
	if _, err := ctl.ObserveBatch(context.Background(), events); err != nil {
		fail(err)
	}

	for _, c := range []struct {
		node int
		cost float64
		desc string
	}{
		{7, 10, "healthy node, small job"},
		{7, 20000, "healthy node, huge job"},
		{8, 10, "degrading node, small job"},
		{8, 20000, "degrading node, huge job"},
	} {
		// Recommend is side-effect-free: polling never changes features.
		d := ctl.Recommend(c.node, now.Add(time.Hour), c.cost)
		detail := fmt.Sprintf("score=%+.2f", d.Score)
		if d.HasQ { // Q-values only exist for the RL policy
			detail = fmt.Sprintf("Q=[%.2f %.2f]", d.QValues[0], d.QValues[1])
		}
		fmt.Printf("  node %d, potential loss %7.0f node-hours (%s): %-8s %s\n",
			c.node, c.cost, c.desc, d.Action, detail)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "quickstart:", err)
	os.Exit(1)
}
