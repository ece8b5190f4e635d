package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// This file holds the bulk (bandwidth-charged) sequential transfers, the
// stream duals of the word-run API in run.go. Every entry — the byte
// transfers Read/Write, the word transfers ReadWords/WriteWords (no
// intermediate byte buffer), the charge-only ChargeStream, and Copy's two
// charges — runs through one page-segment walk, stream, so they all
// charge alike by construction: the same bytes cost the same whichever
// entry moved them. Streams need no batched/exact split; the per-segment
// chargeBulkAccess is already closed form.

// Read copies len(p) bytes from va into p as a charged sequential stream.
func (as *AddressSpace) Read(env *Env, va uint64, p []byte) error {
	return as.stream(env, va, len(p), false, p, nil)
}

// Write copies p to va as a charged sequential stream.
func (as *AddressSpace) Write(env *Env, va uint64, p []byte) error {
	return as.stream(env, va, len(p), true, p, nil)
}

// ReadWords performs a charged sequential read of 8*len(dst) bytes at va,
// decoding straight into dst — charge-identical to Read of the same range
// with no intermediate byte buffer. va must be 8-byte aligned.
func (as *AddressSpace) ReadWords(env *Env, va uint64, dst []uint64) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: ReadWords: va %#x not 8-aligned", va)
	}
	return as.stream(env, va, 8*len(dst), false, nil, dst)
}

// WriteWords performs a charged sequential write of 8*len(src) bytes at
// va, encoding straight from src — charge-identical to Write of the same
// range with no intermediate byte buffer. va must be 8-byte aligned.
func (as *AddressSpace) WriteWords(env *Env, va uint64, src []uint64) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: WriteWords: va %#x not 8-aligned", va)
	}
	return as.stream(env, va, 8*len(src), true, nil, src)
}

// ChargeStream charges a sequential n-byte stream at va without moving
// any data — the bulk-transfer analogue of ChargeRun, for movement the
// host performs elsewhere. The final argument is ignored; it is kept so
// existing callers compile unchanged.
func (as *AddressSpace) ChargeStream(env *Env, va uint64, n int, write, _ bool) error {
	return as.stream(env, va, n, write, nil, nil)
}

// stream is the page-segment walk behind every bulk transfer: it charges
// an n-byte sequential stream at va one page segment at a time (the
// page's translation, then chargeBulkAccess of the segment) and moves the
// segment's bytes to or from p, or its words to or from words (n is then
// 8*len(words) and va 8-aligned, so no word straddles a page); with both
// nil it only charges. A zero-length transfer charges and counts nothing.
func (as *AddressSpace) stream(env *Env, va uint64, n int, write bool, p []byte, words []uint64) error {
	if n <= 0 {
		return nil
	}
	env.Perf.StreamRuns++
	env.Perf.StreamBytes += uint64(n)
	if write {
		env.Perf.BytesWrite += uint64(n)
	} else {
		env.Perf.BytesRead += uint64(n)
	}
	for n > 0 {
		f, err := as.translatePage(env, va)
		if err != nil {
			return err
		}
		off := int(va & mem.PageMask)
		seg := min(mem.PageSize-off, n)
		env.chargeBulkAccess(uint64(f)<<mem.PageShift|uint64(off), seg, write)
		frame := as.Phys.Frame(f)[off : off+seg]
		switch {
		case p != nil:
			if write {
				copy(frame, p)
			} else {
				copy(p, frame)
			}
			p = p[seg:]
		case words != nil:
			k := seg / 8
			if write {
				for i, w := range words[:k] {
					binary.LittleEndian.PutUint64(frame[8*i:], w)
				}
			} else {
				for i := range words[:k] {
					words[i] = binary.LittleEndian.Uint64(frame[8*i:])
				}
			}
			words = words[k:]
		}
		va += uint64(seg)
		n -= seg
	}
	return nil
}

// moveBytes moves n bytes from src to dst frame-to-frame with memmove
// overlap semantics and no intermediate buffer. Every page must be
// resident (callers check that no swap tier is armed).
func (as *AddressSpace) moveBytes(dst, src uint64, n int) error {
	if dst == src || n <= 0 {
		return nil
	}
	if src < dst && dst < src+uint64(n) {
		// Forward-overlapping move: walk backward so each chunk's source
		// bytes are read before any earlier chunk overwrites them. Chunk
		// ends are clamped so neither side crosses a page boundary; within
		// a chunk, copy has memmove semantics even on a shared frame.
		for n > 0 {
			chunk := n
			if a := int((src+uint64(n)-1)&mem.PageMask) + 1; a < chunk {
				chunk = a
			}
			if a := int((dst+uint64(n)-1)&mem.PageMask) + 1; a < chunk {
				chunk = a
			}
			s, d := src+uint64(n-chunk), dst+uint64(n-chunk)
			if err := as.moveChunk(d, s, chunk); err != nil {
				return err
			}
			n -= chunk
		}
		return nil
	}
	for n > 0 {
		chunk := n
		if a := mem.PageSize - int(src&mem.PageMask); a < chunk {
			chunk = a
		}
		if a := mem.PageSize - int(dst&mem.PageMask); a < chunk {
			chunk = a
		}
		if err := as.moveChunk(dst, src, chunk); err != nil {
			return err
		}
		src += uint64(chunk)
		dst += uint64(chunk)
		n -= chunk
	}
	return nil
}

// moveChunk copies one chunk that crosses no page boundary on either side.
func (as *AddressSpace) moveChunk(dst, src uint64, n int) error {
	sf, ok := as.Lookup(src)
	if !ok {
		return badVA("Copy", src)
	}
	df, ok := as.Lookup(dst)
	if !ok {
		return badVA("Copy", dst)
	}
	sOff, dOff := int(src&mem.PageMask), int(dst&mem.PageMask)
	copy(as.Phys.Frame(df)[dOff:dOff+n], as.Phys.Frame(sf)[sOff:sOff+n])
	return nil
}
