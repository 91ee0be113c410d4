package uerl

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rf"
)

// ModelSchemaVersion is the on-disk artifact schema. LoadModel rejects
// artifacts written under any other schema, so a serving daemon can never
// silently misread a model from a different build generation.
const ModelSchemaVersion = 1

// TrainingInfo records how a model artifact was produced.
type TrainingInfo struct {
	// Budget is the training budget name ("ci", "default", "paper").
	Budget string `json:"budget,omitempty"`
	// Seed is the world/training seed.
	Seed int64 `json:"seed,omitempty"`
	// MitigationCostNodeMinutes is the per-action cost trained against.
	MitigationCostNodeMinutes float64 `json:"mitigation_cost_node_minutes,omitempty"`
	// Restartable records the §5 restartability assumption.
	Restartable bool `json:"restartable,omitempty"`
	// KernelVersion records the nn kernel/stream version the weights were
	// trained under. This build trains under nn.KernelFast only; artifacts
	// stamped nn.KernelReference, or zero (they predate kernel versioning),
	// were trained under the legacy reference stream. The streams differ
	// only in floating-point rounding and serve identically, so every
	// known version loads, but reproducing an artifact bit-for-bit
	// requires retraining under its version.
	KernelVersion int `json:"kernel_version,omitempty"`
}

// ModelHeader is the self-describing header of every model artifact.
type ModelHeader struct {
	// Schema is the artifact schema version (ModelSchemaVersion).
	Schema int `json:"schema"`
	// Kind is the policy family of the payload.
	Kind PolicyKind `json:"kind"`
	// FeatureDim is the Table 1 feature dimension the model was built
	// for; artifacts from a build with a different feature layout are
	// rejected at load time.
	FeatureDim int `json:"feature_dim"`
	// Version is the content-addressed model version (Policy.Version).
	Version string `json:"version"`
	// Parent is the content-addressed version of the model this artifact
	// was trained from (empty for a first-generation model). Online
	// continual learning chains versions through it: each promoted
	// candidate records the incumbent it replaced, so a fleet operator
	// can walk an artifact's lineage back to the offline seed model.
	// Parent is metadata — it does not enter the content hash, so
	// retraining that reproduces identical weights keeps the same
	// Version while still recording where it came from.
	Parent string `json:"parent,omitempty"`
	// Training optionally records the producing configuration.
	Training *TrainingInfo `json:"training,omitempty"`
}

// modelEnvelope is the full artifact: header plus kind-specific payload.
type modelEnvelope struct {
	Header ModelHeader `json:"header"`
	// Network carries the Q-network for PolicyRL.
	Network json.RawMessage `json:"network,omitempty"`
	// Forest and Threshold carry the SC20-RF / Myopic-RF payloads.
	Forest    json.RawMessage `json:"forest,omitempty"`
	Threshold float64         `json:"threshold,omitempty"`
	// MitigationCostNodeHours carries the Myopic-RF decision cost.
	MitigationCostNodeHours float64 `json:"mitigation_cost_node_hours,omitempty"`
}

// staticVersion is the version string of untrained kinds. Every served
// Decision carries its policy's version, so callers compute it once.
func staticVersion(kind PolicyKind) string {
	return fmt.Sprintf("%s.v%d", kind, ModelSchemaVersion)
}

// oracleVersion is the Oracle's version string.
var oracleVersion = staticVersion(PolicyOracle)

// contentVersion content-addresses a serialized payload.
func contentVersion(kind PolicyKind, payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%s.v%d.%016x", kind, ModelSchemaVersion, h.Sum64())
}

// networkVersion content-addresses a Q-network.
func networkVersion(kind PolicyKind, net *nn.Network) (string, error) {
	data, err := json.Marshal(net)
	if err != nil {
		return "", fmt.Errorf("uerl: hashing network: %w", err)
	}
	return contentVersion(kind, data), nil
}

// forestVersion content-addresses a random forest together with the scalar
// (threshold or mitigation cost) that completes the decision rule, so two
// artifacts that decide differently never share a version.
func forestVersion(kind PolicyKind, forest *rf.Forest, scalar float64) (string, error) {
	data, err := json.Marshal(forest)
	if err != nil {
		return "", fmt.Errorf("uerl: hashing forest: %w", err)
	}
	data = append(data, []byte(fmt.Sprintf("|%g", scalar))...)
	return contentVersion(kind, data), nil
}

// ModelParent returns the lineage parent version recorded on a policy
// (see ModelHeader.Parent), or "" for first-generation models and kinds
// without lineage.
func ModelParent(p Policy) string {
	if t, ok := p.(trainedPolicy); ok {
		return t.modelLineage().parent
	}
	return ""
}

// SetModelParent records the lineage parent version on a trained policy,
// chaining it to its predecessor (normally the Version of the model it
// was retrained from). Only the trained kinds (rl, sc20-rf, myopic-rf)
// carry lineage.
func SetModelParent(p Policy, parentVersion string) error {
	if parentVersion != "" && parentVersion == p.Version() {
		// A self-parent would make the lineage chain a cycle, and every
		// chain walker (rollback, the scenario summary's lineage) loop.
		return fmt.Errorf("uerl: model %s cannot be its own lineage parent", parentVersion)
	}
	t, ok := p.(trainedPolicy)
	if !ok {
		return fmt.Errorf("uerl: policy kind %q carries no model lineage", p.Kind())
	}
	t.modelLineage().parent = parentVersion
	return nil
}

// trainingOf extracts the recorded TrainingInfo of built-in policies.
func trainingOf(p Policy) *TrainingInfo {
	if t, ok := p.(trainedPolicy); ok {
		return t.modelLineage().training
	}
	return nil
}

// SaveModel writes a policy as a versioned model artifact. Every built-in
// kind except the Oracle is serializable; the Oracle is a future-knowledge
// construction with no model to persist, and custom Policy implementations
// must bring their own persistence.
func SaveModel(w io.Writer, p Policy) error {
	if p == nil {
		return fmt.Errorf("uerl: nil policy")
	}
	env := modelEnvelope{Header: ModelHeader{
		Schema:     ModelSchemaVersion,
		Kind:       p.Kind(),
		FeatureDim: features.Dim,
		Version:    p.Version(),
		Parent:     ModelParent(p),
		Training:   trainingOf(p),
	}}
	switch q := p.(type) {
	case *staticPolicy:
		// Header-only artifact.
	case *rlPolicy:
		data, err := json.Marshal(q.q.Net())
		if err != nil {
			return fmt.Errorf("uerl: serializing network: %w", err)
		}
		env.Network = data
	case *rfPolicy:
		data, err := json.Marshal(q.d.Forest)
		if err != nil {
			return fmt.Errorf("uerl: serializing forest: %w", err)
		}
		env.Forest = data
		env.Threshold = q.d.Threshold
	case *myopicPolicy:
		data, err := json.Marshal(q.d.Forest)
		if err != nil {
			return fmt.Errorf("uerl: serializing forest: %w", err)
		}
		env.Forest = data
		env.MitigationCostNodeHours = q.d.MitigationCostNodeHours
	default:
		return fmt.Errorf("uerl: policy kind %q is not serializable", p.Kind())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(env)
}

// LoadModel restores a policy from a model artifact, rejecting artifacts
// whose schema version or feature dimension does not match this build.
func LoadModel(r io.Reader) (Policy, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("uerl: reading model artifact: %w", err)
	}
	h := env.Header
	if h.Schema != ModelSchemaVersion {
		return nil, fmt.Errorf("uerl: model artifact has schema v%d, this build reads v%d",
			h.Schema, ModelSchemaVersion)
	}
	if h.FeatureDim != features.Dim {
		return nil, fmt.Errorf("uerl: model artifact was built for %d features, this build uses %d",
			h.FeatureDim, features.Dim)
	}
	if h.Training != nil && h.Training.KernelVersion != 0 && !nn.ValidKernel(h.Training.KernelVersion) {
		return nil, fmt.Errorf("uerl: model artifact was trained under unknown kernel version %d (this build knows %d..%d)",
			h.Training.KernelVersion, nn.KernelReference, nn.KernelFast)
	}
	var p Policy
	var err error
	switch h.Kind {
	case PolicyNever:
		p = NeverPolicy()
	case PolicyAlways:
		p = AlwaysPolicy()
	case PolicyRL:
		if len(env.Network) == 0 {
			return nil, fmt.Errorf("uerl: rl model artifact has no network payload")
		}
		var net nn.Network
		if err := json.Unmarshal(env.Network, &net); err != nil {
			return nil, fmt.Errorf("uerl: restoring network: %w", err)
		}
		p, err = newRLPolicy(&net, h.Training)
	case PolicySC20RF:
		var forest *rf.Forest
		if forest, err = loadForest(env); err == nil {
			p, err = newRFPolicy(forest, env.Threshold, h.Training)
		}
	case PolicyMyopicRF:
		var forest *rf.Forest
		if forest, err = loadForest(env); err == nil {
			p, err = newMyopicPolicy(forest, env.MitigationCostNodeHours, h.Training)
		}
	default:
		return nil, fmt.Errorf("uerl: model artifact has unloadable kind %q", h.Kind)
	}
	if err != nil {
		return nil, err
	}
	// The content version is recomputed from the restored payload; a
	// mismatch with the header means the artifact was edited or corrupted.
	if h.Version != "" && p.Version() != h.Version {
		return nil, fmt.Errorf("uerl: model artifact version %q does not match its payload (%q)",
			h.Version, p.Version())
	}
	if h.Parent != "" {
		if h.Parent == h.Version {
			return nil, fmt.Errorf("uerl: model artifact %s names itself as lineage parent", h.Version)
		}
		// Lineage only exists on trained kinds; a parent on any other
		// kind means the header was edited by hand. SetModelParent also
		// re-checks the self-parent cycle against the recomputed version,
		// which catches artifacts whose header Version was stripped.
		if err := SetModelParent(p, h.Parent); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// loadForest restores and validates a forest payload.
func loadForest(env modelEnvelope) (*rf.Forest, error) {
	if len(env.Forest) == 0 {
		return nil, fmt.Errorf("uerl: %s model artifact has no forest payload", env.Header.Kind)
	}
	var forest rf.Forest
	if err := json.Unmarshal(env.Forest, &forest); err != nil {
		return nil, fmt.Errorf("uerl: restoring forest: %w", err)
	}
	if err := forest.ValidateDim(features.PredictorDim); err != nil {
		return nil, fmt.Errorf("uerl: restoring forest: %w", err)
	}
	return &forest, nil
}

// SaveModelFile writes a model artifact to path.
func SaveModelFile(path string, p Policy) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveModel(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModelFile reads a model artifact from path.
func LoadModelFile(path string) (Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
