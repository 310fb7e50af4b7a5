// Package persist serializes trained models to JSON so an agent trained in
// one process can be deployed in another — the edge-device workflow the
// paper targets: train on-device or on a host, persist β and P, and resume
// sequential training anywhere. The encoding is self-describing (versioned
// with dimensions and hyperparameters) and uses the standard library only.
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
)

// FormatVersion guards against loading snapshots from incompatible builds.
const FormatVersion = 1

// matrixJSON is a dims + row-major payload encoding of mat.Dense.
type matrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

func encodeMatrix(m *mat.Dense) *matrixJSON {
	if m == nil {
		return nil
	}
	r, c := m.Dims()
	data := make([]float64, len(m.RawData()))
	copy(data, m.RawData())
	return &matrixJSON{Rows: r, Cols: c, Data: data}
}

func decodeMatrix(j *matrixJSON) (*mat.Dense, error) {
	if j == nil {
		return nil, nil
	}
	if j.Rows < 0 || j.Cols < 0 || len(j.Data) != j.Rows*j.Cols {
		return nil, fmt.Errorf("persist: matrix payload %dx%d with %d values",
			j.Rows, j.Cols, len(j.Data))
	}
	data := make([]float64, len(j.Data))
	copy(data, j.Data)
	return mat.New(j.Rows, j.Cols, data), nil
}

// oselmJSON is a complete OS-ELM snapshot.
type oselmJSON struct {
	Version    int         `json:"version"`
	InputSize  int         `json:"input_size"`
	HiddenSize int         `json:"hidden_size"`
	OutputSize int         `json:"output_size"`
	Activation string      `json:"activation"`
	Delta      float64     `json:"delta"`
	Updates    int         `json:"updates"`
	Alpha      *matrixJSON `json:"alpha"`
	Bias       []float64   `json:"bias"`
	Beta       *matrixJSON `json:"beta"`
	P          *matrixJSON `json:"p,omitempty"`
}

func snapshotOSELM(m *oselm.Model) *oselmJSON {
	return &oselmJSON{
		Version:    FormatVersion,
		InputSize:  m.InputSize(),
		HiddenSize: m.HiddenSize(),
		OutputSize: m.OutputSize(),
		Activation: m.Act.Name,
		Delta:      m.Delta,
		Updates:    m.Updates(),
		Alpha:      encodeMatrix(m.Alpha),
		Bias:       append([]float64(nil), m.Bias...),
		Beta:       encodeMatrix(m.Beta),
		P:          encodeMatrix(m.P),
	}
}

func restoreOSELM(j *oselmJSON) (*oselm.Model, error) {
	if j.Version != FormatVersion {
		return nil, fmt.Errorf("persist: snapshot version %d, this build reads %d", j.Version, FormatVersion)
	}
	act, ok := activation.ByName(j.Activation)
	if !ok {
		return nil, fmt.Errorf("persist: unknown activation %q", j.Activation)
	}
	alpha, err := decodeMatrix(j.Alpha)
	if err != nil {
		return nil, err
	}
	beta, err := decodeMatrix(j.Beta)
	if err != nil {
		return nil, err
	}
	p, err := decodeMatrix(j.P)
	if err != nil {
		return nil, err
	}
	if alpha == nil || beta == nil {
		return nil, fmt.Errorf("persist: snapshot missing alpha or beta")
	}
	if alpha.Rows() != j.InputSize || alpha.Cols() != j.HiddenSize ||
		beta.Rows() != j.HiddenSize || beta.Cols() != j.OutputSize ||
		len(j.Bias) != j.HiddenSize {
		return nil, fmt.Errorf("persist: snapshot dimensions inconsistent")
	}
	base := elm.RestoreModel(alpha, append([]float64(nil), j.Bias...), beta, act)
	return oselm.Restore(base, p, j.Delta, j.Updates)
}

// SaveOSELM writes a JSON snapshot of m.
func SaveOSELM(w io.Writer, m *oselm.Model) error {
	enc := json.NewEncoder(w)
	return enc.Encode(snapshotOSELM(m))
}

// LoadOSELM reads a JSON snapshot produced by SaveOSELM.
func LoadOSELM(r io.Reader) (*oselm.Model, error) {
	var j oselmJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("persist: decoding OS-ELM snapshot: %w", err)
	}
	return restoreOSELM(&j)
}

// configJSON mirrors qnet.Config without the activation function value
// (func types cannot be marshalled; the activation name rides inside the
// model snapshots).
type configJSON struct {
	Variant         int     `json:"variant"`
	ObservationSize int     `json:"observation_size"`
	ActionCount     int     `json:"action_count"`
	Hidden          int     `json:"hidden"`
	Epsilon1        float64 `json:"epsilon1"`
	ExploreDecay    float64 `json:"explore_decay"`
	Epsilon2        float64 `json:"epsilon2"`
	Gamma           float64 `json:"gamma"`
	Delta           float64 `json:"delta"`
	UpdateEvery     int     `json:"update_every"`
	ClipLow         float64 `json:"clip_low"`
	ClipHigh        float64 `json:"clip_high"`
	Seed            uint64  `json:"seed"`
	InitLow         float64 `json:"init_low"`
	InitHigh        float64 `json:"init_high"`
	// The extension flags are omitted when false, so a default-config
	// checkpoint stays byte-identical to one written before they existed.
	OneHotActions       bool `json:"one_hot_actions,omitempty"`
	DoubleQ             bool `json:"double_q,omitempty"`
	StandardOutputModel bool `json:"standard_output_model,omitempty"`
}

func encodeConfig(c qnet.Config) configJSON {
	return configJSON{
		Variant:         int(c.Variant),
		ObservationSize: c.ObservationSize,
		ActionCount:     c.ActionCount,
		Hidden:          c.Hidden,
		Epsilon1:        c.Epsilon1,
		ExploreDecay:    c.ExploreDecay,
		Epsilon2:        c.Epsilon2,
		Gamma:           c.Gamma,
		Delta:           c.Delta,
		UpdateEvery:     c.UpdateEvery,
		ClipLow:         c.ClipLow,
		ClipHigh:        c.ClipHigh,
		Seed:            c.Seed,
		InitLow:         c.InitLow,
		InitHigh:        c.InitHigh,

		OneHotActions:       c.OneHotActions,
		DoubleQ:             c.DoubleQ,
		StandardOutputModel: c.StandardOutputModel,
	}
}

func decodeConfig(j configJSON) qnet.Config {
	return qnet.Config{
		Variant:         qnet.Variant(j.Variant),
		ObservationSize: j.ObservationSize,
		ActionCount:     j.ActionCount,
		Hidden:          j.Hidden,
		Epsilon1:        j.Epsilon1,
		ExploreDecay:    j.ExploreDecay,
		Epsilon2:        j.Epsilon2,
		Gamma:           j.Gamma,
		Delta:           j.Delta,
		UpdateEvery:     j.UpdateEvery,
		ClipLow:         j.ClipLow,
		ClipHigh:        j.ClipHigh,
		Seed:            j.Seed,
		InitLow:         j.InitLow,
		InitHigh:        j.InitHigh,

		OneHotActions:       j.OneHotActions,
		DoubleQ:             j.DoubleQ,
		StandardOutputModel: j.StandardOutputModel,
	}
}

// agentJSON is a complete Q-network agent snapshot: configuration plus both
// networks (θ1 online, θ2 target).
type agentJSON struct {
	Version int        `json:"version"`
	Config  configJSON `json:"config"`
	Theta1  *oselmJSON `json:"theta1"`
	Theta2  *oselmJSON `json:"theta2"`
}

// SaveAgent writes a JSON snapshot of a Q-network agent. The activation
// function in Config is persisted by name via the model snapshots.
func SaveAgent(w io.Writer, a *qnet.Agent) error {
	j := agentJSON{
		Version: FormatVersion,
		Config:  encodeConfig(a.Config()),
		Theta1:  snapshotOSELM(a.Theta1()),
		Theta2:  snapshotOSELM(a.Theta2()),
	}
	return json.NewEncoder(w).Encode(&j)
}

// SaveAgentFile writes an agent snapshot to path atomically: the snapshot
// goes to a temp file in the same directory, which is synced and renamed
// over path before the directory itself is synced. A concurrent reader
// (cmd/serve -watch) sees the old checkpoint or the new one, never a
// partial write, and a failed save leaves the old file and no temp file.
// The file gets mode 0644, what os.Create gives under a 022 umask.
func SaveAgentFile(path string, a *qnet.Agent) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			err = fmt.Errorf("persist: writing %s: %w", path, err)
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = SaveAgent(f, a); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadAgentFile loads an agent snapshot from path — the checkpoint
// entry point for deployment tools (cmd/serve hot-reload). The format
// version is validated before any weights are reconstructed.
func LoadAgentFile(path string) (*qnet.Agent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	a, err := LoadAgent(f)
	if err != nil {
		return nil, fmt.Errorf("persist: checkpoint %s: %w", path, err)
	}
	return a, nil
}

// LoadAgent reconstructs a Q-network agent from a snapshot. Exploration
// schedule and step counters restart fresh; the learned weights (α, b, β,
// P for both networks) are restored exactly.
func LoadAgent(r io.Reader) (*qnet.Agent, error) {
	var j agentJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("persist: decoding agent snapshot: %w", err)
	}
	if j.Version != FormatVersion {
		return nil, fmt.Errorf("persist: snapshot version %d, this build reads %d", j.Version, FormatVersion)
	}
	if j.Theta1 == nil || j.Theta2 == nil {
		return nil, fmt.Errorf("persist: agent snapshot missing networks")
	}
	act, ok := activation.ByName(j.Theta1.Activation)
	if !ok {
		return nil, fmt.Errorf("persist: unknown activation %q", j.Theta1.Activation)
	}
	cfg := decodeConfig(j.Config)
	cfg.Activation = act
	agent, err := qnet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("persist: rebuilding agent: %w", err)
	}
	t1, err := restoreOSELM(j.Theta1)
	if err != nil {
		return nil, fmt.Errorf("persist: theta1: %w", err)
	}
	t2, err := restoreOSELM(j.Theta2)
	if err != nil {
		return nil, fmt.Errorf("persist: theta2: %w", err)
	}
	if err := agent.RestoreModels(t1, t2); err != nil {
		return nil, err
	}
	return agent, nil
}
