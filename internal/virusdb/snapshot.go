package virusdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"

	"dstress/internal/seglog"
)

// The index snapshot is the sidecar file INDEX in the store directory. It
// vouches for frames Open has indexed before, so that Open can take their
// experiment and fitness from a plain scan of the frame's header instead of
// decoding and validating its JSON. Layout, version 1:
//
//	"dstress-virusdb-index v1\n"
//	uint32 block count
//	per block, 28 bytes: uint64 segment, uint64 offset of its first frame,
//	    uint32 frame count, uint64 digest of the block's locators
//	uint32 CRC-32C of everything before it
//
// integers little-endian. A block is a run of at most snapBlock frames in
// one segment, in store order; its digest covers each frame's full
// seglog.Loc (segment, offset, length and CRC-32C), so a block matches
// only the frames it was cut from (see digestLocs). The file holds no
// record data: the values Open indexes always come from the frames, which
// seglog has CRC-checked, so a stale, torn or foreign snapshot can cost
// speed but never change the index.
const (
	snapName  = "INDEX"
	snapMagic = "dstress-virusdb-index v1\n"
	snapBlock = 1024
	blockLen  = 28
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	errNotIndex = errors.New("not an index snapshot")
	errIndexCRC = errors.New("index snapshot checksum mismatch")
	errIndexLen = errors.New("index snapshot length does not match its block count")
	errIndexOrd = errors.New("index snapshot blocks out of order")
)

// block is one snapshot entry: frames frames from seg at off on, whose
// locators hash to digest.
type block struct {
	seg, off uint64
	frames   uint32
	digest   uint64
}

// digestLocs folds every field of locs into 64 bits, each step an xor and a
// multiplication by an odd constant. Both are bijections of the running
// value, so two sequences that differ in one field — a frame rewritten in
// place with a new CRC — always digest differently.
func digestLocs(locs []seglog.Loc) uint64 {
	const prime = 0x100000001b3 // FNV-1's 64-bit prime
	d := uint64(0xcbf29ce484222325)
	for _, l := range locs {
		d = (d ^ l.Seg) * prime
		d = (d ^ uint64(l.Off)) * prime
		d = (d ^ uint64(l.Len)<<32 ^ uint64(l.CRC)) * prime
	}
	return d
}

// snapBlocks cuts locators in store order into blocks: at most snapBlock
// frames each, never across a segment.
func snapBlocks(locs []seglog.Loc) []block {
	var out []block
	for len(locs) > 0 {
		n := 1
		for n < len(locs) && n < snapBlock && locs[n].Seg == locs[0].Seg {
			n++
		}
		out = append(out, block{seg: locs[0].Seg, off: uint64(locs[0].Off),
			frames: uint32(n), digest: digestLocs(locs[:n])})
		locs = locs[n:]
	}
	return out
}

// covers reports whether locs starts with the frames b was cut from.
func (b block) covers(locs []seglog.Loc) bool {
	return len(locs) >= int(b.frames) && locs[0].Seg == b.seg &&
		uint64(locs[0].Off) == b.off && digestLocs(locs[:b.frames]) == b.digest
}

// before reports whether b starts ahead of loc in store order.
func (b block) before(loc seglog.Loc) bool {
	return b.seg < loc.Seg || b.seg == loc.Seg && b.off < uint64(loc.Off)
}

func encodeIndex(blocks []block) []byte {
	p := make([]byte, 0, len(snapMagic)+4+blockLen*len(blocks)+4)
	p = append(p, snapMagic...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(blocks)))
	for _, b := range blocks {
		p = binary.LittleEndian.AppendUint64(p, b.seg)
		p = binary.LittleEndian.AppendUint64(p, b.off)
		p = binary.LittleEndian.AppendUint32(p, b.frames)
		p = binary.LittleEndian.AppendUint64(p, b.digest)
	}
	return binary.LittleEndian.AppendUint32(p, crc32.Checksum(p, crcTable))
}

// decodeIndex reads a snapshot back. It accepts exactly what encodeIndex
// writes for blocks in strictly rising store order, each of at least one
// frame; the block count is checked against the file's length before
// anything is allocated.
func decodeIndex(p []byte) ([]block, error) {
	if len(p) < len(snapMagic)+8 || string(p[:len(snapMagic)]) != snapMagic {
		return nil, errNotIndex
	}
	body, sum := p[:len(p)-4], binary.LittleEndian.Uint32(p[len(p)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, errIndexCRC
	}
	body = body[len(snapMagic):]
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(len(body)) != uint64(n)*blockLen {
		return nil, errIndexLen
	}
	blocks := make([]block, n)
	for i := range blocks {
		b := body[i*blockLen:]
		blocks[i] = block{seg: binary.LittleEndian.Uint64(b), off: binary.LittleEndian.Uint64(b[8:]),
			frames: binary.LittleEndian.Uint32(b[16:]), digest: binary.LittleEndian.Uint64(b[20:])}
		if blocks[i].frames == 0 || i > 0 && !blocks[i-1].before(seglog.Loc{
			Seg: blocks[i].seg, Off: int64(blocks[i].off)}) {
			return nil, errIndexOrd
		}
	}
	return blocks, nil
}

// readSnapshot loads the store's snapshot: none when the file is missing
// or does not decode, and Open then decodes every frame.
func readSnapshot(dir string) []block {
	p, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		return nil
	}
	blocks, err := decodeIndex(p)
	if err != nil {
		return nil
	}
	return blocks
}

// headerFields reads the experiment and fitness of a frame Open has indexed
// before from its JSON header, when the header has the form encodeFrame
// writes: Record's keys in its order, an experiment of printable ASCII
// without escapes and, for an integer chromosome, its integers. ok is
// false for any other header, whose JSON may name a key twice or in
// another case, and Open decodes that frame in full. Nothing is validated:
// every vouched frame was decoded in full once.
func headerFields(h []byte) (exp []byte, fitness float64, ok bool) {
	s, ok := bytes.CutPrefix(h, []byte(`{"experiment":"`))
	if !ok {
		return nil, 0, false
	}
	i := 0
	for ; i < len(s) && s[i] != '"'; i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '\\' {
			return nil, 0, false
		}
	}
	if i == len(s) {
		return nil, 0, false
	}
	exp, s = s[:i], s[i+1:]
	if ints, ok := bytes.CutPrefix(s, []byte(`,"ints":[`)); ok {
		i := 0
		for ; i < len(ints) && ints[i] != ']'; i++ {
			if c := ints[i]; (c < '0' || c > '9') && c != '-' && c != ',' {
				return nil, 0, false
			}
		}
		if i == len(ints) {
			return nil, 0, false
		}
		s = ints[i+1:]
	}
	if s, ok = bytes.CutPrefix(s, []byte(`,"fitness":`)); !ok {
		return nil, 0, false
	}
	num, s := cutNumber(s)
	fitness, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return nil, 0, false
	}
	for _, key := range restKeys {
		if s, ok = bytes.CutPrefix(s, []byte(key)); !ok {
			return nil, 0, false
		}
		_, s = cutNumber(s)
	}
	return exp, fitness, string(s) == "}"
}

// restKeys are the keys json.Marshal writes after a Record's fitness.
var restKeys = []string{`,"mean_ce":`, `,"ue_frac":`, `,"generation":`,
	`,"temp_c":`, `,"trefp":`, `,"vdd":`}

// cutNumber splits a JSON number off s: it runs to the next ',' or '}'.
func cutNumber(s []byte) (num, rest []byte) {
	i := 0
	for i < len(s) && s[i] != ',' && s[i] != '}' {
		i++
	}
	return s[:i], s[i:]
}
