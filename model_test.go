package uerl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/rf"
)

// testForest trains a tiny deterministic forest on PredictorDim features.
func testForest(t testing.TB) *rf.Forest {
	t.Helper()
	rng := mathx.NewRNG(7)
	var x [][]float64
	var y []bool
	for i := 0; i < 200; i++ {
		v := make([]float64, features.PredictorDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		x = append(x, v)
		y = append(y, v[0] > 0.5)
	}
	return rf.TrainForest(x, y, rf.DefaultForestConfig())
}

// sampleSnapshots returns probe states covering quiet and stormy nodes.
func sampleSnapshots() []Snapshot {
	base := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	var out []Snapshot
	for i := 0; i < 16; i++ {
		var f [FeatureDim]float64
		f[features.CEsTotal] = float64(i * 100)
		f[features.CEsSinceLastEvent] = float64(i)
		f[features.RowsWithCEs] = float64(i % 5)
		f[features.UEWarnings] = float64(i % 2)
		f[features.UECost] = float64(i) * 750
		out = append(out, Snapshot{Node: i, Time: base.Add(time.Duration(i) * time.Hour), Features: f})
	}
	return out
}

// assertSamePolicy checks two policies agree on identity and decisions.
func assertSamePolicy(t *testing.T, want, got Policy) {
	t.Helper()
	if got.Kind() != want.Kind() || got.Name() != want.Name() {
		t.Fatalf("restored policy is %s/%s, want %s/%s", got.Kind(), got.Name(), want.Kind(), want.Name())
	}
	if got.Version() != want.Version() {
		t.Fatalf("restored version %q, want %q", got.Version(), want.Version())
	}
	for _, s := range sampleSnapshots() {
		dw, dg := want.Decide(s), got.Decide(s)
		if dw.Action != dg.Action {
			t.Fatalf("restored %s policy disagrees at %+v", got.Kind(), s)
		}
		if dw.Score != dg.Score {
			t.Fatalf("restored %s policy score %v, want %v", got.Kind(), dg.Score, dw.Score)
		}
	}
}

// roundTrip saves and reloads a policy through the artifact format.
func roundTrip(t *testing.T, p Policy) Policy {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestModelRoundTripRL(t *testing.T) {
	p := testRLPolicy(t)
	got := roundTrip(t, p)
	assertSamePolicy(t, p, got)
	if !strings.HasPrefix(got.Version(), "rl.v1.") {
		t.Fatalf("unexpected version format %q", got.Version())
	}
}

func TestModelRoundTripStatic(t *testing.T) {
	for _, p := range []Policy{NeverPolicy(), AlwaysPolicy()} {
		assertSamePolicy(t, p, roundTrip(t, p))
	}
}

func TestModelRoundTripForests(t *testing.T) {
	forest := testForest(t)
	rfp, err := newRFPolicy(forest, 0.4, &TrainingInfo{Budget: "ci", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePolicy(t, rfp, roundTrip(t, rfp))

	myp, err := newMyopicPolicy(forest, 2.0/60, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePolicy(t, myp, roundTrip(t, myp))

	// The threshold participates in the version, so two artifacts with the
	// same forest but different decision rules never alias.
	other, err := newRFPolicy(forest, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.Version() == rfp.Version() {
		t.Fatal("different thresholds share a model version")
	}
}

// tamper decodes a saved artifact, edits it, and re-encodes it.
func tamper(t *testing.T, p Policy, edit func(env map[string]json.RawMessage, header map[string]any)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, p); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var header map[string]any
	if err := json.Unmarshal(env["header"], &header); err != nil {
		t.Fatal(err)
	}
	edit(env, header)
	hdr, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	env["header"] = hdr
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestModelLineageRoundTrip(t *testing.T) {
	// The parent needs distinct weights: identical policies share a
	// content version, and a same-version parent is a self-parent cycle.
	pnet := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{16, 8}, Outputs: 2, Dueling: true, Seed: 4})
	parent, err := newRLPolicy(pnet, nil)
	if err != nil {
		t.Fatal(err)
	}
	child := testRLPolicy(t)
	if got := ModelParent(child); got != "" {
		t.Fatalf("fresh policy has parent %q", got)
	}
	if err := SetModelParent(child, parent.Version()); err != nil {
		t.Fatal(err)
	}
	if got := ModelParent(child); got != parent.Version() {
		t.Fatalf("ModelParent = %q, want %q", got, parent.Version())
	}

	// Lineage survives the artifact round trip...
	var buf bytes.Buffer
	if err := SaveModel(&buf, child); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	restored, err := LoadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := ModelParent(restored); got != parent.Version() {
		t.Fatalf("restored parent = %q, want %q", got, parent.Version())
	}
	// ...is visible in the artifact header...
	var env struct {
		Header ModelHeader `json:"header"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Header.Parent != parent.Version() {
		t.Fatalf("header parent = %q, want %q", env.Header.Parent, parent.Version())
	}
	// ...and is metadata only: the content-addressed version must not
	// change when the lineage does.
	if restored.Version() != child.Version() {
		t.Fatalf("lineage changed the content version: %q vs %q", restored.Version(), child.Version())
	}

	// Forest kinds chain the same way.
	rfp, err := newRFPolicy(testForest(t), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetModelParent(rfp, "sc20-rf.v1.feedbeef"); err != nil {
		t.Fatal(err)
	}
	if got := ModelParent(roundTrip(t, rfp)); got != "sc20-rf.v1.feedbeef" {
		t.Fatalf("forest lineage lost: %q", got)
	}
}

// A model naming itself as its lineage parent is a one-link cycle: every
// chain walker (guard rollback, the scenario summary's lineage) would loop.
func TestModelRejectsSelfParent(t *testing.T) {
	p := testRLPolicy(t)
	if err := SetModelParent(p, p.Version()); err == nil {
		t.Fatal("SetModelParent accepted a self-parent cycle")
	}
	if got := ModelParent(p); got != "" {
		t.Fatalf("rejected self-parent was still recorded: %q", got)
	}

	// The same cycle hand-edited into an artifact header must not load.
	data := tamper(t, testRLPolicy(t), func(_ map[string]json.RawMessage, h map[string]any) {
		h["parent"] = h["version"]
	})
	if _, err := LoadModel(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "parent") {
		t.Fatalf("self-parent artifact accepted (err=%v)", err)
	}
}

func TestSetModelParentUnsupportedKinds(t *testing.T) {
	if err := SetModelParent(NeverPolicy(), "x"); err == nil {
		t.Fatal("static policy accepted lineage")
	}
	if ModelParent(AlwaysPolicy()) != "" {
		t.Fatal("static policy reports lineage")
	}
}

func TestLoadModelRejectsParentOnStaticKind(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, AlwaysPolicy()); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var header map[string]any
	if err := json.Unmarshal(env["header"], &header); err != nil {
		t.Fatal(err)
	}
	header["parent"] = "always.v1"
	hdr, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	env["header"] = hdr
	edited, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(edited)); err == nil {
		t.Fatal("artifact with hand-edited lineage on a static kind loaded")
	}
}

func TestLoadModelRejectsWrongSchema(t *testing.T) {
	data := tamper(t, AlwaysPolicy(), func(_ map[string]json.RawMessage, h map[string]any) {
		h["schema"] = ModelSchemaVersion + 1
	})
	if _, err := LoadModel(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema artifact accepted (err=%v)", err)
	}
}

func TestLoadModelRejectsWrongFeatureDim(t *testing.T) {
	data := tamper(t, testRLPolicy(t), func(_ map[string]json.RawMessage, h map[string]any) {
		h["feature_dim"] = features.Dim + 3
	})
	if _, err := LoadModel(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "features") {
		t.Fatalf("wrong-dimension artifact accepted (err=%v)", err)
	}
}

// TestLoadModelKernelVersion pins LoadModel's kernel-version check: the
// same weights stamped 0 (pre-versioning), nn.KernelReference or
// nn.KernelFast all load and serve identical decisions, and an unknown
// stamp is rejected with an error naming it.
func TestLoadModelKernelVersion(t *testing.T) {
	base := testRLPolicy(t)
	net := base.(*rlPolicy).q.Net()
	stamped := func(k int) Policy {
		t.Helper()
		p, err := newRLPolicy(net.Clone(), &TrainingInfo{Seed: 1, KernelVersion: k})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, k := range []int{0, nn.KernelReference, nn.KernelFast} {
		got := roundTrip(t, stamped(k))
		assertSamePolicy(t, base, got)
		if info := trainingOf(got); info == nil || info.KernelVersion != k {
			t.Fatalf("stamp %d: restored training info %+v", k, info)
		}
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, stamped(nn.KernelFast+1)); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModel(&buf)
	if want := fmt.Sprintf("kernel version %d", nn.KernelFast+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("stamp %d: LoadModel error %v, want one naming %q", nn.KernelFast+1, err, want)
	}
}

func TestLoadModelRejectsTamperedPayload(t *testing.T) {
	// An artifact whose payload was swapped for different weights must be
	// rejected: the recomputed content version no longer matches the header.
	variantNet := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{16, 8}, Outputs: 2, Dueling: true, Seed: 99})
	variant, err := newRLPolicy(variantNet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var vbuf bytes.Buffer
	if err := SaveModel(&vbuf, variant); err != nil {
		t.Fatal(err)
	}
	var variantEnv map[string]json.RawMessage
	if err := json.Unmarshal(vbuf.Bytes(), &variantEnv); err != nil {
		t.Fatal(err)
	}
	data := tamper(t, testRLPolicy(t), func(env map[string]json.RawMessage, _ map[string]any) {
		env["network"] = variantEnv["network"]
	})
	if _, err := LoadModel(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("tampered artifact accepted (err=%v)", err)
	}
}

func TestLoadModelRejectsUnknownKind(t *testing.T) {
	data := tamper(t, AlwaysPolicy(), func(_ map[string]json.RawMessage, h map[string]any) {
		h["kind"] = "quantum"
	})
	if _, err := LoadModel(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("unknown-kind artifact accepted (err=%v)", err)
	}
}

func TestSaveModelRejectsOracleAndNil(t *testing.T) {
	var buf bytes.Buffer
	oracle := &oraclePolicy{}
	if err := SaveModel(&buf, oracle); err == nil {
		t.Fatal("oracle artifact accepted")
	}
	if err := SaveModel(&buf, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	p := testRLPolicy(t)
	if err := SaveModelFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePolicy(t, p, got)
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
