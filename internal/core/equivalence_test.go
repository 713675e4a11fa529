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
// recordings synthesized with the node's field from the projector's
// keyed carrier.
var equivPins = []pinnedDecode{
	// 500bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59354, payloadIndex: 61100, startLevel: 1, score: 0.9449585851595423, snr: 117.67591256377881, cfo: -0.1487298881560982, preErrs: 0, measSNR: 74.28836049557377, measBER: 0},
	// 1000bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.895102149223335, snr: 23.793032660289814, cfo: -0.32840594998703, preErrs: 0, measSNR: 23.384372105606992, measBER: 0},
	// 2000bps/0.5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8482932612243899, snr: 8.316042192627755, cfo: 0, preErrs: 0, measSNR: 7.666985063802287, measBER: 0},
	// 500bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59354, payloadIndex: 61100, startLevel: 1, score: 0.9451098504123882, snr: 117.15192485837451, cfo: -0.14921985646620597, preErrs: 0, measSNR: 74.28981845987981, measBER: 0},
	// 1000bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.8947866590080207, snr: 23.823739279532774, cfo: -0.3286528030835474, preErrs: 0, measSNR: 23.321328825800453, measBER: 0},
	// 2000bps/2Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.848595709208573, snr: 8.393167110096948, cfo: 0, preErrs: 0, measSNR: 7.741275993419121, measBER: 0},
	// 500bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59353, payloadIndex: 61099, startLevel: 1, score: 0.9450931082629379, snr: 116.68094122761752, cfo: -0.14868543791045347, preErrs: 0, measSNR: 71.40520704942034, measBER: 0},
	// 1000bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59354, payloadIndex: 60236, startLevel: 1, score: 0.895967098125725, snr: 23.581449689979237, cfo: -0.32839842317283363, preErrs: 0, measSNR: 23.029112797303043, measBER: 0},
	// 2000bps/5Pa/poolA/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59351, payloadIndex: 59783, startLevel: 1, score: 0.8501191608891693, snr: 8.161223631073991, cfo: 0, preErrs: 0, measSNR: 7.560317567266411, measBER: 0},
	// 500bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8458240998198866, snr: 22.529328043174257, cfo: -0.31996916641443535, preErrs: 0, measSNR: 11.518810011978214, measBER: 0},
	// 1000bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8542062431450261, snr: 25.246255883658424, cfo: -0.4564154944260874, preErrs: 0, measSNR: 21.735282549829975, measBER: 0},
	// 2000bps/0.5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7578020389058464, snr: 11.07351246376016, cfo: -0.47524698871073756, preErrs: 0, measSNR: 10.646230067250823, measBER: 0},
	// 500bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8457467874554077, snr: 22.51048528308757, cfo: -0.3199413367951758, preErrs: 0, measSNR: 11.517763683828116, measBER: 0},
	// 1000bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8542870163290242, snr: 25.289205804058156, cfo: -0.45616733626064887, preErrs: 0, measSNR: 21.72781194293971, measBER: 0},
	// 2000bps/2Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7575533209638429, snr: 11.05335566858865, cfo: -0.47579815623351335, preErrs: 0, measSNR: 10.622402796151526, measBER: 0},
	// 500bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59355, payloadIndex: 61101, startLevel: -1, score: 0.8455666638311893, snr: 22.59273494359044, cfo: -0.3203672772671123, preErrs: 0, measSNR: 11.38757646243045, measBER: 0},
	// 1000bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59360, payloadIndex: 60242, startLevel: -1, score: 0.8539044647975376, snr: 25.183760025428644, cfo: -0.45377607053103075, preErrs: 0, measSNR: 21.58379802504633, measBER: 0},
	// 2000bps/5Pa/poolB/0mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x32}, index: 59364, payloadIndex: 59796, startLevel: -1, score: 0.7573292708006354, snr: 10.86191390354033, cfo: -0.4744560210596935, preErrs: 0, measSNR: 10.45207411904902, measBER: 0},
	// 500bps/0.5Pa/poolA/2mps
	{decoded: true, source: 1, seq: 0, payload: []byte{0x0, 0x33}, index: 59192, payloadIndex: 60938, startLevel: 1, score: 0.8785995638438191, snr: 14.859763602942072, cfo: -0.0017577891068532856, preErrs: 0, measSNR: 0.12157694775656763, measBER: 0.3230769230769231},
	// 500bps/0.5Pa/poolA/6mps
	{measSNR: 0.29663582505810715, measBER: 0.36923076923076925}, // frame: data CRC mismatch: got 7f9c, want 5555
}
