package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pab/internal/channel"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/sensors"
)

// equivCase is one seeded reader↔node exchange of the receiver
// equivalence set: the cross of three bitrates, three hydrophone noise
// levels and the paper's two tanks, plus drifting nodes whose Doppler
// rotation pushes the decoder into its block-tracked fallback.
type equivCase struct {
	bitrate float64 // requested; NewPaperNode snaps it to the MCU clock grid
	noisePa float64
	poolB   bool
	speedMS float64 // node radial drift
	seed    int64
}

func (c equivCase) String() string {
	pool := "A"
	if c.poolB {
		pool = "B"
	}
	return fmt.Sprintf("%gbps/%gPa/pool%s/%gmps", c.bitrate, c.noisePa, pool, c.speedMS)
}

func equivCases() []equivCase {
	var out []equivCase
	for _, poolB := range []bool{false, true} {
		for _, noise := range []float64{0.5, 2, 5} {
			for _, br := range []float64{500, 1000, 2000} {
				out = append(out, equivCase{bitrate: br, noisePa: noise, poolB: poolB, seed: int64(len(out) + 1)})
			}
		}
	}
	for _, v := range []float64{2, 6} {
		out = append(out, equivCase{bitrate: 500, noisePa: 0.5, speedMS: v, seed: int64(len(out) + 1)})
	}
	return out
}

// exchange runs the case's powered ping exchange and returns the
// hydrophone recording, the decode gate, the node's actual bitrate and
// the uplink bits it sent.
func (c equivCase) exchange(t *testing.T) ([]float64, int, float64, []phy.Bit) {
	t.Helper()
	link := c.poweredLink(t)
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if res.UplinkBits == nil {
		t.Fatalf("%v: node sent no uplink", c)
	}
	return res.Recording, res.DecodeGate, link.Node().Bitrate(), res.UplinkBits
}

// poweredLink builds the case's link and powers its node up.
func (c equivCase) poweredLink(t *testing.T) *Link {
	t.Helper()
	cfg := DefaultLinkConfig()
	cfg.NodePos = channel.Vec3{X: 2.61, Y: 1.61, Z: 1.01}
	if c.poolB {
		cfg.Tank = channel.PoolB()
		cfg.NodePos = channel.Vec3{X: 1.01, Y: 2.88, Z: 0.43}
	}
	cfg.NoiseRMS = c.noisePa
	cfg.NodeRadialSpeedMS = c.speedMS
	cfg.Seed = c.seed
	n, err := NewPaperNode(0x01, c.bitrate, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(cfg, n, proj)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.EnsurePowered(60); err != nil {
		t.Fatal(err)
	}
	return link
}

// pinnedDecode is what the receiver returned for one case.
type pinnedDecode struct {
	decoded      bool
	source, seq  byte
	payload      []byte
	index        int
	payloadIndex int
	startLevel   float64
	score        float64
	snr          float64
	cfo          float64
	preErrs      int
	// MeasureUplinkSNR against the sent bits.
	measSNR, measBER float64
}

// TestReceiverEquivalence pins DecodeUplink and MeasureUplinkSNR on the
// equivalence set. Every field is exact except the correlation score,
// which may move by rounding when the correlator's arithmetic is
// reordered; the values were computed on amd64.
func TestReceiverEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	cases := equivCases()
	if len(cases) != len(equivPins) {
		t.Fatalf("%d cases, %d pins", len(cases), len(equivPins))
	}
	for i, c := range cases {
		rec, gate, bitrate, sent := c.exchange(t)
		r, err := NewReceiver(DefaultLinkConfig().SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedDecode{}
		dec, err := r.DecodeUplink(rec, DefaultLinkConfig().CarrierHz, bitrate, gate)
		if err == nil {
			got = pinnedDecode{
				decoded: true, source: dec.Frame.Source, seq: dec.Frame.Seq, payload: dec.Frame.Payload,
				index: dec.Sync.Index, payloadIndex: dec.Sync.PayloadIndex, startLevel: dec.Sync.StartLevel,
				score: dec.Sync.Score, snr: dec.SNRLinear, cfo: dec.CFOHz, preErrs: dec.PreambleBitErrors,
			}
		}
		got.measSNR, got.measBER, err = r.MeasureUplinkSNR(rec, DefaultLinkConfig().CarrierHz, bitrate, sent, gate)
		if err != nil {
			t.Errorf("%v: MeasureUplinkSNR: %v", c, err)
		}
		want := equivPins[i]
		if got.decoded != want.decoded || got.source != want.source || got.seq != want.seq ||
			!bytes.Equal(got.payload, want.payload) || got.index != want.index ||
			got.payloadIndex != want.payloadIndex || got.startLevel != want.startLevel ||
			got.snr != want.snr || got.cfo != want.cfo || got.preErrs != want.preErrs ||
			got.measSNR != want.measSNR || got.measBER != want.measBER ||
			math.Abs(got.score-want.score) > 1e-9 {
			t.Errorf("%v:\n got %+v\nwant %+v", c, got, want)
		}
	}
}

// equivPins are the parent receiver's results on equivCases, in order.
var equivPins = []pinnedDecode{
	// 500bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59354, payloadIndex: 61100, startLevel: 1, score: 0.944958601789463, snr: 117.67629034170005, cfo: -0.14873021894893657, preErrs: 0, measSNR: 74.28868760025858, measBER: 0},
	// 1000bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8951008567260251, snr: 23.793399312994588, cfo: -0.328408634479819, preErrs: 0, measSNR: 23.384656482942724, measBER: 0},
	// 2000bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8482883479911617, snr: 8.31606799562788, cfo: 0, preErrs: 0, measSNR: 7.666951358706031, measBER: 0},
	// 500bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59354, payloadIndex: 61100, startLevel: 1, score: 0.9451093658724091, snr: 117.15269582449174, cfo: -0.149219505185738, preErrs: 0, measSNR: 74.29015632987965, measBER: 0},
	// 1000bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8947849596316838, snr: 23.82359105377887, cfo: -0.32865160301025864, preErrs: 0, measSNR: 23.321333584742707, measBER: 0},
	// 2000bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8486083899896434, snr: 8.393071589308201, cfo: 0, preErrs: 0, measSNR: 7.741201663527077, measBER: 0},
	// 500bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59353, payloadIndex: 61099, startLevel: 1, score: 0.9450921360932137, snr: 116.67970238005309, cfo: -0.14868434585022128, preErrs: 0, measSNR: 71.4060216760579, measBER: 0},
	// 1000bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8959693796035185, snr: 23.581765463812086, cfo: -0.3284008120632245, preErrs: 0, measSNR: 23.029153888905718, measBER: 0},
	// 2000bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.850119406428745, snr: 8.160772178134456, cfo: 0, preErrs: 0, measSNR: 7.56005151741065, measBER: 0},
	// 500bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8458279487687823, snr: 22.5296628202878, cfo: -0.3199682398101948, preErrs: 0, measSNR: 11.518926111530552, measBER: 0},
	// 1000bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8542119331380386, snr: 25.247028753673813, cfo: -0.45641508402409525, preErrs: 0, measSNR: 21.735878201147102, measBER: 0},
	// 2000bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7578151592439325, snr: 11.0745189390647, cfo: -0.47524191192808113, preErrs: 0, measSNR: 10.64731888670943, measBER: 0},
	// 500bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8457483399208999, snr: 22.510751328619726, cfo: -0.3199406853004254, preErrs: 0, measSNR: 11.51776924105223, measBER: 0},
	// 1000bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8542854645983691, snr: 25.288960284178515, cfo: -0.45616642349979003, preErrs: 0, measSNR: 21.72737827292841, measBER: 0},
	// 2000bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7575405498112923, snr: 11.053374905039567, cfo: -0.47579886014745326, preErrs: 0, measSNR: 10.622638856126635, measBER: 0},
	// 500bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8455666752078845, snr: 22.59272823343599, cfo: -0.32036745415236184, preErrs: 0, measSNR: 11.387636675237873, measBER: 0},
	// 1000bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8539025183196464, snr: 25.183639239634598, cfo: -0.4537754205357099, preErrs: 0, measSNR: 21.583594999170206, measBER: 0},
	// 2000bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7573282674642317, snr: 10.862024241694845, cfo: -0.47447104127127737, preErrs: 0, measSNR: 10.452047723917332, measBER: 0},
	// 500bps/0.5Pa/poolA/2mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59192, payloadIndex: 60938, startLevel: 1, score: 0.8785995403411276, snr: 14.859751980155409, cfo: -0.001757222424151181, preErrs: 0, measSNR: 0.12157534180319217, measBER: 0.3230769230769231},
	// 500bps/0.5Pa/poolA/6mps
	{measSNR: 0.29663739939443656, measBER: 0.36923076923076925}, // frame: data CRC mismatch: got 7f9c, want 5555
}
