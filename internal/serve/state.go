package serve

// Sealed tenant state. A tenant's journal is its authoritative history;
// replaying it re-runs every calibration and RPCA solve the tenant ever
// did. So on every journal compaction and at drain each tenant also
// seals its exact in-memory state next to its journal (<id>.ncstate,
// CRC-sealed by checkpoint.SaveSnapshot), and a restart restores that
// state and replays only the records after it — the paper's move,
// computing the constant once and reusing it, applied to recovery.
//
// The state file is a cache of the journal's effect, never a source of
// truth. It names the sequence number it reflects and a digest of the
// records up to it; a file that is missing, damaged, of an unknown
// version, for another history (and so another config), ahead of the
// store, or past the size caps is ignored and the tenant replays from
// its create record. That one rule is also the migration path for
// directories written before state files existed.
//
// Every float is stored as its exact bits and every random stream as
// its position (stats.CountingSource), so a restored tenant answers,
// and seals again, byte for byte like the one that sealed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"

	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
)

// stateVersion is the version of the state file's header, written
// first in every payload; core versions the layout that follows it. A
// file of any other version is ignored (replay from create).
const stateVersion = 1

// maxStateDraws caps a recorded random-stream position. Restoring
// fast-forwards each stream that many steps (a few nanoseconds each);
// a tenant past the cap simply restarts by replay.
const maxStateDraws = 1 << 26

// maxCrossRack caps the recorded rack-pair factors, which grow with the
// rack pairs a tenant's placements ever spanned.
const maxCrossRack = 1 << 16

// crossRackBound is the most rack-pair factors a tenant of cfg can
// record.
func crossRackBound(cfg TenantConfig) int {
	return min(cfg.Racks*(cfg.Racks-1)/2, maxCrossRack)
}

// maxStateBytes bounds the state payload of a tenant of cfg (a
// validated config, so the products cannot overflow). A larger file is
// ignored unread, and a larger state is not written.
func maxStateBytes(cfg TenantConfig) int {
	n, steps := cfg.VMs, cfg.Steps
	cells := steps * n * n
	words := 256 + 2*n + 3*crossRackBound(cfg) + // scalars, placement, rack pairs
		2*(3*n*n) + // constant and heuristic (with quality)
		2*steps + 3*cells + // last calibration (times, two TP-matrices, mask)
		2*(3*cells+n*n+steps*steps) // two streaming solvers
	return 8 * words
}

var digestTable = crc64.MakeTable(crc64.ECMA)

// historyDigest fingerprints a record history, so a state file is only
// ever applied on top of the history that produced it.
func historyDigest(recs [][]byte) uint64 {
	var d uint64
	var n [4]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint32(n[:], uint32(len(r)))
		d = crc64.Update(d, digestTable, n[:])
		d = crc64.Update(d, digestTable, r)
	}
	return d
}

// sealState writes the tenant's state file for the current journal
// sequence, unless the file on disk already reflects it.
func (t *tenant) sealState() error {
	seq := t.store.Seq()
	if seq == t.sealed {
		return nil
	}
	payload := t.encodeState(seq, historyDigest(t.store.Records()[:seq]))
	if len(payload) > maxStateBytes(t.cfg) {
		return nil // it would be ignored on load; restart replays instead
	}
	if err := checkpoint.SaveSnapshot(t.srv.statePath(t.id), payload); err != nil {
		return err
	}
	t.sealed = seq
	return nil
}

// restoreState installs the tenant's sealed state onto t, a tenant
// fresh from newTenant, and returns the sequence number it reflects.
// recs is the store's record history. Any error means the file is not
// usable; t may then be partly overwritten and must be discarded.
func (t *tenant) restoreState(recs [][]byte) (uint64, error) {
	path := t.srv.statePath(t.id)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if fi.Size() > int64(maxStateBytes(t.cfg))+64 {
		return 0, fmt.Errorf("serve: state file of %d bytes exceeds its cap", fi.Size())
	}
	payload, err := checkpoint.LoadSnapshot(path)
	if err != nil {
		return 0, err
	}
	st, err := decodeState(payload, t.cfg, recs)
	if err != nil {
		return 0, err
	}
	if err := t.cluster.Restore(st.cluster); err != nil {
		return 0, err
	}
	if err := t.adv.Restore(t.srv.baseCtx, st.adv); err != nil {
		return 0, err
	}
	if st.advDraws < t.advSrc.Draws() {
		return 0, errors.New("serve: state's advisor stream is behind a fresh tenant's")
	}
	t.calIndex = st.calIndex
	t.advSrc.Skip(st.advDraws - t.advSrc.Draws())
	t.sealed = st.seq
	return st.seq, nil
}

// stateHeader is the payload's first words: layout version, the
// journal sequence and history digest the state reflects, and the
// tenant's own counters.
const stateHeader = 5 * 8

// tenantState is a decoded state file.
type tenantState struct {
	seq      uint64
	calIndex int
	advDraws uint64
	cluster  cloud.ClusterState
	adv      core.AdvisorState
}

// encodeState lays the tenant's state out as the version-1 payload:
// the header, then the cluster's and advisor's state in core's layout.
func (t *tenant) encodeState(seq, digest uint64) []byte {
	b := make([]byte, 0, stateHeader)
	for _, v := range []uint64{stateVersion, seq, digest, uint64(t.calIndex), t.advSrc.Draws()} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return core.AppendState(b, t.cluster.State(), t.adv.State())
}

// decodeState parses and checks a state payload for a tenant of cfg
// whose store holds recs. Lengths are checked against the config before
// anything is allocated, and stream positions against maxStateDraws
// before anything is fast-forwarded.
func decodeState(payload []byte, cfg TenantConfig, recs [][]byte) (*tenantState, error) {
	if len(payload) < stateHeader {
		return nil, errors.New("serve: state payload shorter than its header")
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(payload[8*i:]) }
	if v := word(0); v != stateVersion {
		return nil, fmt.Errorf("serve: state version %d, want %d", v, stateVersion)
	}
	st := &tenantState{seq: word(1), advDraws: word(4)}
	if st.seq == 0 || st.seq > uint64(len(recs)) {
		return nil, fmt.Errorf("serve: state at sequence %d, store holds %d records", st.seq, len(recs))
	}
	if word(2) != historyDigest(recs[:st.seq]) {
		return nil, errors.New("serve: state sealed for another record history")
	}
	if word(3) > math.MaxInt32 || st.advDraws > maxStateDraws {
		return nil, errors.New("serve: state counters past their caps")
	}
	st.calIndex = int(word(3))
	var err error
	st.cluster, st.adv, err = core.DecodeState(payload[stateHeader:], core.StateLimits{
		VMs: cfg.VMs, Steps: cfg.Steps, MaxCrossRack: crossRackBound(cfg), MaxDraws: maxStateDraws,
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
