package tuned

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/wire"
)

// packedTrialsFrame encodes a TTrialsP reply of n trials whose configs
// hold base, base+1, base+2.
func packedTrialsFrame(t *testing.T, n int, base float64) []byte {
	t.Helper()
	resp := &wire.PackedTrials{Epoch: 5, Trials: make([]wire.PackedTrial, n)}
	for i := range resp.Trials {
		resp.Trials[i] = wire.PackedTrial{
			ID: uint64(i + 1), Algo: 1, DeadlineMS: 1_700_000_000_000, Speculative: i > 0,
			Config: []float64{base, base + 1, base + 2},
		}
	}
	frame, err := wire.AppendFrame(nil, wire.Version, wire.TTrialsP, 3, resp)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// readLeaseBatch is the client's receive path for a packed lease reply:
// frame read into a reused buffer, decode into a reused reply, and the
// copy into a LeaseBatch the caller owns.
func readLeaseBatch(t *testing.T, rd *bytes.Reader, frame []byte, buf []byte, resp *wire.PackedTrials) (LeaseBatch, []byte) {
	rd.Reset(frame)
	typ, _, payload, buf, err := wire.ReadFrameBuf(rd, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeResp(typ, payload, wire.TTrialsP, resp); err != nil {
		t.Fatal(err)
	}
	return leaseBatch(resp), buf
}

// TestLeaseBatchAllocCeiling pins the client's conversion of a packed
// TTrialsP frame into a LeaseBatch at two allocations per batch, the
// trial slice and one backing array for every config, however many
// trials the batch carries. Reader, frame buffer and reply are reused,
// as the client reuses its connection's.
func TestLeaseBatchAllocCeiling(t *testing.T) {
	const ceiling = 2
	frame := packedTrialsFrame(t, 16, 1)
	var resp wire.PackedTrials
	rd := new(bytes.Reader)
	lb, buf := readLeaseBatch(t, rd, frame, nil, &resp) // warm the reused storage
	if len(lb.Trials) != 16 {
		t.Fatalf("decoded %d trials, want 16", len(lb.Trials))
	}
	allocs := testing.AllocsPerRun(200, func() {
		lb, buf = readLeaseBatch(t, rd, frame, buf, &resp)
	})
	if allocs > ceiling {
		t.Errorf("packed lease reply to LeaseBatch: %v allocs per batch, ceiling %d", allocs, ceiling)
	}
}

// TestLeaseBatchOwnsConfigs checks that a LeaseBatch survives the reuse
// of the reply it was decoded from, and that its trials' configs are
// independent of each other.
func TestLeaseBatchOwnsConfigs(t *testing.T) {
	var resp wire.PackedTrials
	rd := new(bytes.Reader)
	lb, buf := readLeaseBatch(t, rd, packedTrialsFrame(t, 4, 1), nil, &resp)
	readLeaseBatch(t, rd, packedTrialsFrame(t, 4, 50), buf, &resp)
	for i, tr := range lb.Trials {
		if tr.ID != uint64(i+1) || tr.Algo != 1 || tr.Speculative != (i > 0) || !tr.Deadline.Equal(time.UnixMilli(1_700_000_000_000)) {
			t.Fatalf("trial %d = %+v", i, tr)
		}
		if want := []float64{1, 2, 3}; !tr.Config.Equal(want) {
			t.Fatalf("trial %d config %v after the reply was reused, want %v", i, tr.Config, want)
		}
	}
	_ = append(lb.Trials[0].Config, 99)
	lb.Trials[0].Config[2] = -1
	if got := lb.Trials[1].Config; got[0] != 1 {
		t.Fatalf("writing trial 0's config changed trial 1's: %v", got)
	}
}
