// Package parlot is this repository's stand-in for the ParLOT tracing
// substrate (Taheri et al., ESPT 2018): whole-program function-call tracing
// with lightweight, incremental, on-the-fly compression.
//
// The paper's ParLOT is a Pin tool; Go has no dynamic binary instrumentation,
// so here applications are instrumented at the source level through a Tracer
// (see tracer.go) while this file reproduces the part DiffTrace actually
// depends on: per-thread streams of function IDs compressed incrementally
// with a predictor-based scheme that reaches very high ratios on loopy HPC
// traces (the paper reports ratios exceeding 21,000).
//
// The scheme is a finite-context-method (FCM) predictor plus run-length
// encoding of prediction hits:
//
//   - The encoder keeps a hash table indexed by the last Order symbols.
//     If the table correctly predicts the next symbol, that symbol costs
//     amortically a fraction of a byte (hits are run-length encoded);
//     otherwise the symbol is emitted verbatim as a varint.
//   - Token stream: varint v. v == 0 introduces a hit run (next varint is
//     the run length); v > 0 is a miss carrying symbol v-1.
//
// Loop-dominated traces are almost all hits, so a trace of N calls encodes
// in O(#misses) bytes — the same asymptotic behaviour ParLOT exploits.
package parlot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Order is the FCM context length (number of preceding symbols hashed to
// predict the next one). ParLOT uses small contexts for speed; order 3
// captures call patterns inside doubly nested loops.
const Order = 3

// tableBits sizes the predictor hash table (1<<tableBits entries).
const tableBits = 16

type predictor struct {
	table [1 << tableBits]uint32 // stores symbol+1; 0 = empty
	ctx   [Order]uint32
	hash  uint32
}

func (p *predictor) slot() uint32 { return p.hash & (1<<tableBits - 1) }

// predict returns the predicted next symbol and whether a prediction exists.
func (p *predictor) predict() (uint32, bool) {
	v := p.table[p.slot()]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// update records that sym followed the current context and shifts it in.
func (p *predictor) update(sym uint32) {
	p.table[p.slot()] = sym + 1
	copy(p.ctx[:], p.ctx[1:])
	p.ctx[Order-1] = sym
	h := uint32(2166136261)
	for _, s := range p.ctx {
		h = (h ^ s) * 16777619
	}
	p.hash = h
}

// Encoder incrementally compresses a stream of uint32 symbols to an
// io.Writer. It buffers only the current run of prediction hits, so memory
// stays O(1) regardless of trace length — the "on-the-fly" property that
// lets ParLOT trace long runs with a few KB per core.
type Encoder struct {
	w       io.Writer
	p       predictor
	hitRun  uint64
	scratch [binary.MaxVarintLen64]byte
	symbols uint64
	written uint64
	err     error
}

// NewEncoder returns an Encoder writing compressed bytes to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

func (e *Encoder) putUvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.scratch[:], v)
	m, err := e.w.Write(e.scratch[:n])
	e.written += uint64(m)
	e.err = err
}

func (e *Encoder) flushRun() {
	if e.hitRun == 0 {
		return
	}
	e.putUvarint(0)
	e.putUvarint(e.hitRun)
	e.hitRun = 0
}

// Encode compresses one symbol.
func (e *Encoder) Encode(sym uint32) {
	e.symbols++
	if pred, ok := e.p.predict(); ok && pred == sym {
		e.hitRun++
		e.p.update(sym)
		return
	}
	e.flushRun()
	e.putUvarint(uint64(sym) + 1)
	e.p.update(sym)
}

// Flush drains the pending hit run. The stream remains appendable: Flush may
// be called at any checkpoint (ParLOT flushes periodically so that traces
// survive application crashes — DiffTrace's deadlock use case).
func (e *Encoder) Flush() error {
	e.flushRun()
	return e.err
}

// Stats reports symbols consumed and compressed bytes emitted so far
// (pending hit-run bytes not included until Flush).
func (e *Encoder) Stats() (symbols, compressedBytes uint64) {
	return e.symbols, e.written
}

// Ratio returns symbols*4 / compressedBytes, i.e. the compression ratio
// relative to raw uint32 storage. Returns 0 before any output.
func (e *Encoder) Ratio() float64 {
	if e.written == 0 {
		return 0
	}
	return float64(e.symbols*4) / float64(e.written)
}

// Err returns the first write error encountered.
func (e *Encoder) Err() error { return e.err }

// ErrCorrupt reports malformed compressed input.
var ErrCorrupt = errors.New("parlot: corrupt compressed stream")

// Decoder decompresses a stream produced by Encoder.
type Decoder struct {
	r       io.ByteReader
	p       predictor
	pending uint64 // remaining symbols in the current hit run
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.ByteReader) *Decoder { return &Decoder{r: r} }

// Reset makes d decode a new stream from r, exactly as a fresh
// NewDecoder(r) would, reusing its predictor table.
func (d *Decoder) Reset(r io.ByteReader) {
	d.r = r
	d.p = predictor{}
	d.pending = 0
}

// decoders recycles Decoders between replays and reads: each carries a
// 256 KiB predictor table, reset (not reallocated) per compressed block.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// putDecoder returns d to the pool; the caller must not use it again.
func putDecoder(d *Decoder) {
	d.r = nil
	decoders.Put(d)
}

// Decode returns the next symbol, or io.EOF at clean end of stream.
func (d *Decoder) Decode() (uint32, error) {
	if d.pending > 0 {
		d.pending--
		sym, ok := d.p.predict()
		if !ok {
			return 0, fmt.Errorf("%w: hit run with empty predictor", ErrCorrupt)
		}
		d.p.update(sym)
		return sym, nil
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, err // io.EOF at token boundary is clean EOF
	}
	if v == 0 {
		n, err := binary.ReadUvarint(d.r)
		if err != nil || n == 0 {
			return 0, fmt.Errorf("%w: bad hit-run length", ErrCorrupt)
		}
		d.pending = n
		return d.Decode()
	}
	if v-1 > 1<<31 {
		return 0, fmt.Errorf("%w: symbol %d out of range", ErrCorrupt, v-1)
	}
	sym := uint32(v - 1)
	d.p.update(sym)
	return sym, nil
}

// DecodeAll reads until EOF and returns every symbol.
func (d *Decoder) DecodeAll() ([]uint32, error) {
	var out []uint32
	for {
		s, err := d.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}
