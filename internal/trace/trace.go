// Package trace provides the traffic accounting the paper obtains from
// ipmwatch/VTune: byte counters at the iMC<->DIMM boundary and at the
// DIMM<->media boundary, plus the derived metrics (read/write
// amplification and read ratios) used throughout the evaluation.
package trace

import "fmt"

// Counters accumulates traffic at the three observation points the paper
// uses, plus on-DIMM buffer flow detail the paper can only infer:
//
//   - Demand*: bytes the program itself asked for (64 B per load/store
//     the workload issues). Recorded by the machine layer at instruction
//     retirement — this is the numerator's denominator for both §3.4
//     read ratios.
//   - IMC*: bytes the integrated memory controller exchanged with the
//     DIMM (demand misses + prefetches + writebacks). Recorded by the
//     controller at WPQ/RPQ acceptance; the paper reads this point with
//     the CPU's UNC_M_* uncore counters via VTune.
//   - Media*: bytes the DIMM exchanged with the 3D-XPoint media (always
//     multiples of the 256 B XPLine). Recorded by the DIMM model at the
//     media ports; the paper reads this point with ipmwatch
//     (media_read/media_write). RA = Media/IMC on the read side and
//     WA = Media/IMC on the write side reproduce the paper's
//     amplification metrics exactly.
//
// The remaining counters expose what happens between the IMC and Media
// points — the on-DIMM buffering the paper characterizes indirectly:
// buffer hits, evictions, periodic write-backs, and occupancy peaks.
type Counters struct {
	DemandReadBytes  uint64
	DemandWriteBytes uint64
	IMCReadBytes     uint64
	IMCWriteBytes    uint64
	MediaReadBytes   uint64
	MediaWriteBytes  uint64

	// BufferReadHits / BufferWriteHits count cacheline requests served by
	// the on-DIMM buffers without touching the media.
	BufferReadHits  uint64
	BufferWriteHits uint64
	// MediaReads / MediaWrites count XPLine-granularity media operations.
	MediaReads  uint64
	MediaWrites uint64

	// RBEvictions counts read-buffer XPLines displaced by FIFO overflow;
	// WCBEvictions counts write-combining-buffer entries flushed toward
	// the media under capacity pressure; WCBPeriodicWBs counts entries
	// the first-generation DIMM's periodic write-back retired instead.
	RBEvictions    uint64
	WCBEvictions   uint64
	WCBPeriodicWBs uint64

	// *OccupancyPeak record the high-water mark (in entries) each queue
	// or buffer reached during the run. Add keeps the maximum, not the
	// sum, so aggregates stay meaningful.
	RBOccupancyPeak  uint64
	WCBOccupancyPeak uint64
	WPQOccupancyPeak uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.DemandReadBytes += o.DemandReadBytes
	c.DemandWriteBytes += o.DemandWriteBytes
	c.IMCReadBytes += o.IMCReadBytes
	c.IMCWriteBytes += o.IMCWriteBytes
	c.MediaReadBytes += o.MediaReadBytes
	c.MediaWriteBytes += o.MediaWriteBytes
	c.BufferReadHits += o.BufferReadHits
	c.BufferWriteHits += o.BufferWriteHits
	c.MediaReads += o.MediaReads
	c.MediaWrites += o.MediaWrites
	c.RBEvictions += o.RBEvictions
	c.WCBEvictions += o.WCBEvictions
	c.WCBPeriodicWBs += o.WCBPeriodicWBs
	c.RBOccupancyPeak = maxU64(c.RBOccupancyPeak, o.RBOccupancyPeak)
	c.WCBOccupancyPeak = maxU64(c.WCBOccupancyPeak, o.WCBOccupancyPeak)
	c.WPQOccupancyPeak = maxU64(c.WPQOccupancyPeak, o.WPQOccupancyPeak)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// ratio returns num/den, or 0 when the denominator is 0 — a run with
// no traffic at that observation point reports 0, never NaN or Inf.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RA is the paper's read amplification: media bytes read divided by bytes
// the iMC requested from the DIMM. Values above 1 indicate granularity
// mismatch overhead; below 1, on-DIMM buffer hits. Returns 0 when the
// iMC read no bytes.
func (c Counters) RA() float64 { return ratio(c.MediaReadBytes, c.IMCReadBytes) }

// WA is the paper's write amplification: media bytes written divided by
// bytes the iMC issued to the DIMM. Returns 0 when the iMC wrote no
// bytes.
func (c Counters) WA() float64 { return ratio(c.MediaWriteBytes, c.IMCWriteBytes) }

// PMReadRatio is the §3.4 "read ratio for Optane DCPMM": media bytes read
// divided by program-demanded bytes. Returns 0 when the program demanded
// no reads.
func (c Counters) PMReadRatio() float64 { return ratio(c.MediaReadBytes, c.DemandReadBytes) }

// IMCReadRatio is the §3.4 "read ratio for the iMC": bytes the iMC loaded
// divided by program-demanded bytes. Returns 0 when the program demanded
// no reads.
func (c Counters) IMCReadRatio() float64 { return ratio(c.IMCReadBytes, c.DemandReadBytes) }

// WriteBufferHitRatio is the fraction of cacheline writes arriving at the
// DIMM that were absorbed by an on-DIMM buffer without a media RMW
// (Fig. 4's metric). Returns 0 when no cacheline writes arrived.
func (c Counters) WriteBufferHitRatio() float64 {
	return ratio(c.BufferWriteHits, c.IMCWriteBytes/64)
}

func (c Counters) String() string {
	return fmt.Sprintf(
		"demand r/w %d/%d B, iMC r/w %d/%d B, media r/w %d/%d B (RA=%.2f WA=%.2f)",
		c.DemandReadBytes, c.DemandWriteBytes,
		c.IMCReadBytes, c.IMCWriteBytes,
		c.MediaReadBytes, c.MediaWriteBytes,
		c.RA(), c.WA(),
	)
}
