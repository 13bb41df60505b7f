package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"
)

// T1Result is the §5 in-text experiment: exchange overhead.
type T1Result struct {
	Records    int
	NoExchange PassResult
	Inline     PassResult
	PipeFlow   PassResult
	PipeNoFlow PassResult
	// PerRecordPerExchange is the derived overhead of one exchange in
	// inline (procedure call) mode, the paper's 25.73 µs figure.
	PerRecordPerExchange time.Duration
}

// RunT1 executes all four configurations of the §5 experiment.
func RunT1(records int) (*T1Result, error) {
	res := &T1Result{Records: records}
	var err error
	if res.NoExchange, err = RunPass(PassConfig{Records: records, Stages: 0}); err != nil {
		return nil, fmt.Errorf("t1 no-exchange: %w", err)
	}
	if res.Inline, err = RunPass(PassConfig{Records: records, Stages: 3, Inline: true}); err != nil {
		return nil, fmt.Errorf("t1 inline: %w", err)
	}
	if res.PipeFlow, err = RunPass(PassConfig{Records: records, Stages: 3, FlowControl: true, Slack: 4}); err != nil {
		return nil, fmt.Errorf("t1 pipeline(flow): %w", err)
	}
	if res.PipeNoFlow, err = RunPass(PassConfig{Records: records, Stages: 3}); err != nil {
		return nil, fmt.Errorf("t1 pipeline(noflow): %w", err)
	}
	res.PerRecordPerExchange = (res.Inline.Elapsed - res.NoExchange.Elapsed) / 3 / time.Duration(records)
	return res, nil
}

// Print renders the T1 table with the paper's numbers alongside.
func (r *T1Result) Print(w io.Writer) {
	scale := float64(r.Records) / float64(PaperRecords)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "T1 — exchange overhead (record-passing program, %d records)\n", r.Records)
	fmt.Fprintln(tw, "configuration\tmeasured\tpaper (100k, 4 MIPS CPUs)")
	fmt.Fprintf(tw, "no exchange\t%v\t%.2fs\n", r.NoExchange.Elapsed.Round(time.Microsecond), PaperNoExchangeSec*scale)
	fmt.Fprintf(tw, "3 exchanges, no new processes\t%v\t%.2fs\n", r.Inline.Elapsed.Round(time.Microsecond), PaperInlineSec*scale)
	fmt.Fprintf(tw, "pipeline of 4 groups, flow control\t%v\t%.2fs\n", r.PipeFlow.Elapsed.Round(time.Microsecond), PaperPipelineFlowSec*scale)
	fmt.Fprintf(tw, "pipeline of 4 groups, no flow control\t%v\t%.2fs\n", r.PipeNoFlow.Elapsed.Round(time.Microsecond), PaperPipelineNoFlowSec*scale)
	fmt.Fprintf(tw, "overhead/record/exchange (inline)\t%v\t%.2fµs\n", r.PerRecordPerExchange, PaperPerRecordUsec)
	tw.Flush()
}

// Fig2Point is one packet-size measurement.
type Fig2Point struct {
	PacketSize int
	Elapsed    time.Duration
	PaperSec   float64 // 0 if the paper gives no explicit number
}

// Fig2Result is the packet-size sweep of Figures 2a and 2b.
type Fig2Result struct {
	Records int
	Points  []Fig2Point
}

// RunFig2 sweeps the paper's packet sizes.
func RunFig2(records int) (*Fig2Result, error) {
	res := &Fig2Result{Records: records}
	for _, ps := range Fig2aPacketSizes {
		p, err := RunFig2aPoint(records, ps, 1)
		if err != nil {
			return nil, fmt.Errorf("fig2a packet=%d: %w", ps, err)
		}
		res.Points = append(res.Points, Fig2Point{
			PacketSize: ps,
			Elapsed:    p.Elapsed,
			PaperSec:   Fig2aPaperSeconds[ps],
		})
	}
	return res, nil
}

// Print renders Figure 2a as a table plus an ASCII bar chart, and the
// Figure 2b log-log slope analysis.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 2a — exchange performance vs packet size (%d records, 3→3→3→1, slack 3)\n", r.Records)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "packet\tmeasured\trel(83)\tpaper")
	base := r.Points[len(r.Points)-1].Elapsed
	maxE := r.Points[0].Elapsed
	for _, p := range r.Points {
		paper := "-"
		if p.PaperSec > 0 {
			paper = fmt.Sprintf("%.1fs", p.PaperSec)
		}
		bar := int(40 * float64(p.Elapsed) / float64(maxE))
		fmt.Fprintf(tw, "%d\t%v\t%.2fx\t%s\t%s\n",
			p.PacketSize, p.Elapsed.Round(time.Microsecond),
			float64(p.Elapsed)/float64(base), paper, bars(bar))
	}
	tw.Flush()

	fmt.Fprintln(w, "\nFigure 2b — log-log view (straight line for small packets = data-exchange bound)")
	s1 := r.Slope(1, 10)
	s2 := r.Slope(10, 83)
	fmt.Fprintf(w, "  slope, packets 1..10:  %.2f (paper: ≈ -1, exchange-dominated)\n", s1)
	fmt.Fprintf(w, "  slope, packets 10..83: %.2f (paper: flattens, record processing dominates)\n", s2)
}

func bars(n int) string {
	if n < 1 {
		n = 1
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// Slope returns the log-log slope of elapsed time between two packet
// sizes present in the sweep.
func (r *Fig2Result) Slope(fromPS, toPS int) float64 {
	var from, to *Fig2Point
	for i := range r.Points {
		if r.Points[i].PacketSize == fromPS {
			from = &r.Points[i]
		}
		if r.Points[i].PacketSize == toPS {
			to = &r.Points[i]
		}
	}
	if from == nil || to == nil {
		return math.NaN()
	}
	return (math.Log(float64(to.Elapsed)) - math.Log(float64(from.Elapsed))) /
		(math.Log(float64(toPS)) - math.Log(float64(fromPS)))
}
