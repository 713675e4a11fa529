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

// equivPins are the receiver's results on equivCases, in order, on
// recordings whose node field and direct path are the projector's keyed
// carrier times its envelope through each response.
var equivPins = []pinnedDecode{
	// 500bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59354, payloadIndex: 61100, startLevel: 1, score: 0.9449585851582764, snr: 117.67591256120949, cfo: -0.14872988815543325, preErrs: 0, measSNR: 74.28836049430343, measBER: 0.0},
	// 1000bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8951021492205379, snr: 23.79303265978945, cfo: -0.328405949985356, preErrs: 0, measSNR: 23.384372105156814, measBER: 0.0},
	// 2000bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8482932612186687, snr: 8.316042192541865, cfo: 0.0, preErrs: 0, measSNR: 7.666985063675287, measBER: 0.0},
	// 500bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59354, payloadIndex: 61100, startLevel: 1, score: 0.9451098504111073, snr: 117.15192485573058, cfo: -0.14921985646549044, preErrs: 0, measSNR: 74.28981845846369, measBER: 0.0},
	// 1000bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8947866590052473, snr: 23.823739279030317, cfo: -0.3286528030820542, preErrs: 0, measSNR: 23.32132882534689, measBER: 0.0},
	// 2000bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8485957092029892, snr: 8.393167110010456, cfo: 0.0, preErrs: 0, measSNR: 7.7412759932913815, measBER: 0.0},
	// 500bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59353, payloadIndex: 61099, startLevel: 1, score: 0.9450931082616268, snr: 116.68094122510095, cfo: -0.14868543790993022, preErrs: 0, measSNR: 71.40520704811696, measBER: 0.0},
	// 1000bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8959670981229994, snr: 23.581449689458257, cfo: -0.32839842317141793, preErrs: 0, measSNR: 23.029112796842945, measBER: 0.0},
	// 2000bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8501191608835857, snr: 8.161223630981114, cfo: 0.0, preErrs: 0, measSNR: 7.5603175671352725, measBER: 0.0},
	// 500bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8458240998255172, snr: 22.529328043981955, cfo: -0.31996916641290674, preErrs: 0, measSNR: 11.518810012345662, measBER: 0.0},
	// 1000bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8542062431465987, snr: 25.246255884054218, cfo: -0.45641549442360074, preErrs: 0, measSNR: 21.735282549991716, measBER: 0.0},
	// 2000bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7578020389098592, snr: 11.073512463950514, cfo: -0.4752469887103737, preErrs: 0, measSNR: 10.646230067435532, measBER: 0.0},
	// 500bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8457467874610213, snr: 22.510485283925828, cfo: -0.31994133679362075, preErrs: 0, measSNR: 11.517763684200492, measBER: 0.0},
	// 1000bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8542870163305981, snr: 25.289205804442865, cfo: -0.45616733625823036, preErrs: 0, measSNR: 21.72781194310073, measBER: 0.0},
	// 2000bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7575533209678262, snr: 11.053355668775453, cfo: -0.4757981562334004, preErrs: 0, measSNR: 10.622402796333642, measBER: 0.0},
	// 500bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8455666638367892, snr: 22.592734944410868, cfo: -0.3203672772655414, preErrs: 0, measSNR: 11.387576462787816, measBER: 0.0},
	// 1000bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8539044647990952, snr: 25.183760025852674, cfo: -0.45377607052841734, preErrs: 0, measSNR: 21.58379802522945, measBER: 0.0},
	// 2000bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.757329270804816, snr: 10.86191390377303, cfo: -0.4744560210591788, preErrs: 0, measSNR: 10.452074119272261, measBER: 0.0},
	// 500bps/0.5Pa/poolA/2mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59192, payloadIndex: 60938, startLevel: 1, score: 0.8785995638458207, snr: 14.859763602988691, cfo: -0.0017577891043521886, preErrs: 0, measSNR: 0.12157694775693617, measBER: 0.3230769230769231},
	// 500bps/0.5Pa/poolA/6mps
	{measSNR: 0.29663582508721265, measBER: 0.36923076923076925}, // frame: data CRC mismatch: got 7f9c, want 5555
}
