// Package checkpoint reads the line-oriented checkpoint files earlier
// builds wrote, so that farm.OpenJournal can migrate a pre-seglog journal
// (one whole-document record in this format) into the segmented store.
// Nothing writes the format any more. A file is:
//
//	dstress-checkpoint v1
//	rec <seq> <crc32c-hex> <compact-json-payload>
//	rec <seq> <crc32c-hex> <compact-json-payload>
//
// The newest record is last. LoadBytes verifies the versioned header and
// each record's checksum, salvages the newest intact record when the tail
// is corrupt, and fails loudly (never silently wrong) when no record
// survives.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Header constants. LoadBytes refuses versions it does not understand
// rather than guessing.
const (
	Magic   = "dstress-checkpoint"
	Version = 1
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrBadHeader marks a file that is not a checkpoint file at all.
	ErrBadHeader = errors.New("checkpoint: bad header")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrNoRecord marks a checkpoint file with no intact record — header
	// present, every record damaged or missing.
	ErrNoRecord = errors.New("checkpoint: no intact record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type record struct {
	seq     uint64
	payload []byte // compact JSON
}

// LoadResult reports what LoadBytes found.
type LoadResult struct {
	// Payload is the newest intact record.
	Payload json.RawMessage
	// Seq is its sequence number.
	Seq uint64
	// Salvaged counts damaged or trailing-garbage lines that were dropped
	// to reach the payload; non-zero means the file had a corrupt tail.
	Salvaged int
}

// LoadBytes reads the newest intact record from the bytes of a checkpoint
// file. It returns ErrBadHeader / ErrVersion for files this package must
// not reinterpret and ErrNoRecord when the header parses but no record
// survives its checksum. The name passed is only for error messages.
func LoadBytes(data []byte, name string) (LoadResult, error) {
	recs, salvaged, err := parseRecords(data, name)
	if err != nil {
		return LoadResult{}, err
	}
	last := recs[len(recs)-1]
	return LoadResult{Payload: last.payload, Seq: last.seq, Salvaged: salvaged}, nil
}

// parseRecords scans checkpoint bytes. Scanning stops at the first damaged
// line: anything after it is unordered debris from a torn write, and
// trusting a "valid-looking" record beyond the damage could resurrect state
// newer than what the writer actually committed.
func parseRecords(data []byte, name string) ([]record, int, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // trailing newline of a complete file
	}
	if len(lines) == 0 {
		return nil, 0, fmt.Errorf("checkpoint: %s: empty file: %w", name, ErrNoRecord)
	}
	if err := parseHeader(lines[0]); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	var recs []record
	salvaged := 0
	for i, line := range lines[1:] {
		r, ok := parseRecord(line)
		if !ok {
			salvaged = len(lines[1:]) - i
			break
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, salvaged, fmt.Errorf("checkpoint: %s: %w", name, ErrNoRecord)
	}
	return recs, salvaged, nil
}

func parseHeader(line string) error {
	magic, ver, ok := strings.Cut(strings.TrimSpace(line), " ")
	if !ok || magic != Magic || !strings.HasPrefix(ver, "v") {
		return ErrBadHeader
	}
	n, err := strconv.Atoi(ver[1:])
	if err != nil {
		return ErrBadHeader
	}
	if n != Version {
		return fmt.Errorf("%w: v%d (this build reads v%d)", ErrVersion, n, Version)
	}
	return nil
}

// parseRecord validates one "rec <seq> <crc> <json>" line. Any deviation —
// bad field count, checksum mismatch, non-JSON payload — marks the line
// damaged.
func parseRecord(line string) (record, bool) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) != 4 || fields[0] != "rec" {
		return record{}, false
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	want, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return record{}, false
	}
	payload := []byte(fields[3])
	if crc32.Checksum(payload, crcTable) != uint32(want) {
		return record{}, false
	}
	if !json.Valid(payload) {
		return record{}, false
	}
	return record{seq: seq, payload: payload}, true
}
