package core

import (
	"repro/internal/cube"
	"repro/internal/network"
)

// trialNet is the mutable surface a division trial edits: the read interface
// plus the four mutators the engine applies to its working copy. Both
// *network.Network (the historical deep-clone path) and *network.Overlay
// (the copy-on-write path) satisfy it, so every divider is written once and
// Options.NoOverlay just changes which one trialClone hands out. It is a
// named interface distinct from network.Reader on purpose: the roview
// analyzer freezes anything read through a Reader, while a trialNet is
// exactly the thing a planner owns and may mutate.
type trialNet interface {
	network.Reader
	AddNode(name string, fanins []string, cover cube.Cover) *network.Node
	ReplaceNodeFunction(name string, fanins []string, cover cube.Cover) error
	SetNodeCover(name string, cover cube.Cover)
	NormalizeNode(name string)
}

// trialClone returns the working copy a division trial mutates: a free
// copy-on-write overlay over nw, or — under Options.NoOverlay — a full deep
// clone (the historical path, kept as the escape hatch and as the Audit
// cross-check reference).
func (sc *scratch) trialClone(nw network.Reader) trialNet {
	if sc.noOverlay {
		return nw.Clone()
	}
	return network.NewOverlay(nw)
}

// overlayDelta returns a finished trial's edits as an overlay delta over nw:
// the one shape a whole-network plan commits through (Overlay.ApplyTo). An
// overlay working copy already is that delta. A deep clone (Options.NoOverlay)
// is replayed onto a fresh overlay in ApplyTo's order — the added core, then
// the replaced nodes in the order the trial first touched them — so both
// paths hand the committer the same delta, while Audit still checks the
// reads the trial made on a real Network.
func overlayDelta(nw network.Reader, work trialNet, core string, replaced ...string) *network.Overlay {
	if ov, ok := work.(*network.Overlay); ok {
		return ov
	}
	ov := network.NewOverlay(nw)
	if core != "" {
		n := work.Node(core)
		ov.AddNode(core, n.Fanins, n.Cover)
	}
	for _, name := range replaced {
		n := work.Node(name)
		if err := ov.ReplaceNodeFunction(name, n.Fanins, n.Cover); err != nil {
			panic("core: replaying a clone trial: " + err.Error())
		}
	}
	return ov
}

// materializeTrial converts a trial's delta into a standalone
// *network.Network for the public one-shot entry points (ExtendedDivide,
// PooledExtendedDivide), whose callers expect an independent network.
func materializeTrial(work *network.Overlay) *network.Network {
	return work.Clone()
}
