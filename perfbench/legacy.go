package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/tuned"
	"repro/internal/wire"
)

// legacyProto is the protocol version a pre-v3 worker speaks: JSON
// payloads in lockstep, zero correlation IDs.
const legacyProto = 2

// jsonWorker is a pre-v3 worker written against the wire package
// alone, as a third-party or old binary would be: Hello{Proto: 2}, then
// JSON LeaseN/CompleteN/FailN frames through WriteMsgV/ReadFrame, one
// request in flight. Features ride on every lease.
type jsonWorker struct {
	conn  net.Conn
	br    *bufio.Reader
	feats []float64
}

// dialJSONWorker connects and handshakes, refusing any answer that
// would not keep the session on the v2 path.
func dialJSONWorker(addr string, feats []float64, dial func(network, addr string, timeout time.Duration) (net.Conn, error)) (*jsonWorker, error) {
	conn, err := dial("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	w := &jsonWorker{conn: conn, br: bufio.NewReader(conn), feats: feats}
	var ack wire.HelloAck
	if err := w.roundTrip(wire.THello, &wire.Hello{Proto: legacyProto, Name: "v2-worker"}, wire.THelloAck, &ack); err != nil {
		conn.Close()
		return nil, fmt.Errorf("v2 handshake: %w", err)
	}
	if ack.Proto != legacyProto {
		conn.Close()
		return nil, fmt.Errorf("v2 handshake answered proto %d", ack.Proto)
	}
	return w, nil
}

func (w *jsonWorker) roundTrip(typ wire.Type, req wire.Payload, want wire.Type, resp wire.Payload) error {
	if err := wire.WriteMsgV(w.conn, legacyProto, typ, req); err != nil {
		return err
	}
	got, payload, err := wire.ReadFrame(w.br)
	if err != nil {
		return err
	}
	if got == wire.TError {
		var e wire.ErrorResp
		if err := e.DecodeFrom(payload); err != nil {
			return err
		}
		return fmt.Errorf("server error %d: %s", e.Code, e.Msg)
	}
	if got != want {
		return fmt.Errorf("answered %s, want %s", got, want)
	}
	return resp.DecodeFrom(payload)
}

func (w *jsonWorker) lease(n int) (tuned.LeaseBatch, error) {
	var resp wire.LeaseNResp
	if err := w.roundTrip(wire.TLeaseN, &wire.LeaseNReq{N: n, Features: w.feats}, wire.TTrials, &resp); err != nil {
		return tuned.LeaseBatch{}, err
	}
	lb := tuned.LeaseBatch{Epoch: resp.Epoch, Done: resp.Done, Retry: time.Duration(resp.RetryMS) * time.Millisecond}
	for _, t := range resp.Trials {
		lb.Trials = append(lb.Trials, core.Trial{ID: t.ID, Algo: t.Algo, Config: t.Config})
	}
	return lb, nil
}

func (w *jsonWorker) complete(epoch int64, res []core.TrialResult) (int, error) {
	req := wire.CompleteNReq{Epoch: epoch, Results: make([]wire.Result, len(res))}
	for i, r := range res {
		req.Results[i] = wire.Result{ID: r.ID, Value: r.Value}
	}
	var ack wire.AckResp
	if err := w.roundTrip(wire.TCompleteN, &req, wire.TAck, &ack); err != nil {
		return 0, err
	}
	return len(ack.Dropped), nil
}

func (w *jsonWorker) fail(epoch int64, fails []core.TrialFailure) (int, error) {
	req := wire.FailNReq{Epoch: epoch, Fails: make([]wire.Fail, len(fails))}
	for i, f := range fails {
		req.Fails[i] = wire.Fail{ID: f.ID, Kind: f.Failure.Kind.String(), Msg: f.Failure.Err.Error()}
	}
	var ack wire.AckResp
	if err := w.roundTrip(wire.TFailN, &req, wire.TAck, &ack); err != nil {
		return 0, err
	}
	return len(ack.Dropped), nil
}

func (w *jsonWorker) Close() error { return w.conn.Close() }
