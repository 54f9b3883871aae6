// Package grouping implements the file-grouping optimization of the paper's
// Section VII-C (Fig 11): many small compressed files are packed into a few
// grouped archives so the WAN transfer regains large-file throughput. Each
// archive has a binary header (member count, names, offsets, sizes) followed
// by the concatenated member bodies, and a human-readable metadata text is
// produced for the whole grouping, mirroring the paper's design.
package grouping

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Member is one file inside a group.
type Member struct {
	Name string
	Data []byte
}

// groupMagic identifies an Ocelot group archive.
const groupMagic = 0x4F434752 // "OCGR"

// ErrCorrupt indicates a malformed archive.
var ErrCorrupt = errors.New("grouping: corrupt archive")

// Pack serializes members into one archive: header (magic, count, table of
// name/offset/size) then bodies at the recorded offsets.
func Pack(members []Member) ([]byte, error) {
	if len(members) == 0 {
		return nil, errors.New("grouping: no members")
	}
	headerSize := 8 // magic + count
	for _, m := range members {
		if m.Name == "" {
			return nil, errors.New("grouping: empty member name")
		}
		if len(m.Name) > 1<<16-1 {
			return nil, fmt.Errorf("grouping: name too long: %d bytes", len(m.Name))
		}
		headerSize += 2 + len(m.Name) + 8 + 8
	}
	total := headerSize
	for _, m := range members {
		total += len(m.Data)
	}
	out := make([]byte, 0, total)
	var b4 [4]byte
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b4[:], groupMagic)
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(members)))
	out = append(out, b4[:]...)
	offset := uint64(headerSize)
	for _, m := range members {
		var b2 [2]byte
		binary.LittleEndian.PutUint16(b2[:], uint16(len(m.Name)))
		out = append(out, b2[:]...)
		out = append(out, m.Name...)
		binary.LittleEndian.PutUint64(b8[:], offset)
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], uint64(len(m.Data)))
		out = append(out, b8[:]...)
		offset += uint64(len(m.Data))
	}
	for _, m := range members {
		out = append(out, m.Data...)
	}
	return out, nil
}

// minEntry is the member-table entry of a member without its name: a
// 2-byte name length and the 8-byte offset and size.
const minEntry = 2 + 8 + 8

// Unpack parses an archive back into members. Member data aliases the
// input buffer.
func Unpack(archive []byte) ([]Member, error) {
	if len(archive) < 8 {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(archive[:4]) != groupMagic {
		return nil, fmt.Errorf("grouping: bad magic: %w", ErrCorrupt)
	}
	// The header count is attacker-controlled: bound it by the entries the
	// archive can hold before reserving anything for them.
	count := int(binary.LittleEndian.Uint32(archive[4:8]))
	if count <= 0 || count > (len(archive)-8)/minEntry {
		return nil, fmt.Errorf("grouping: %d members claimed by a %d-byte archive: %w", count, len(archive), ErrCorrupt)
	}
	members := make([]Member, 0, count)
	off := 8
	type entry struct {
		name         string
		offset, size uint64
	}
	entries := make([]entry, 0, count)
	for i := 0; i < count; i++ {
		if off+2 > len(archive) {
			return nil, ErrCorrupt
		}
		nameLen := int(binary.LittleEndian.Uint16(archive[off : off+2]))
		off += 2
		if nameLen == 0 {
			return nil, fmt.Errorf("grouping: member %d has an empty name: %w", i, ErrCorrupt)
		}
		if off+nameLen+16 > len(archive) {
			return nil, ErrCorrupt
		}
		name := string(archive[off : off+nameLen])
		off += nameLen
		o := binary.LittleEndian.Uint64(archive[off : off+8])
		s := binary.LittleEndian.Uint64(archive[off+8 : off+16])
		off += 16
		entries = append(entries, entry{name, o, s})
	}
	var prevEnd uint64
	for i, e := range entries {
		// Compare the size against the bytes after the offset: a hostile
		// size near 2^64 would wrap offset+size back into range.
		if e.offset > uint64(len(archive)) || e.size > uint64(len(archive))-e.offset {
			return nil, ErrCorrupt
		}
		// Offsets must be monotone and non-overlapping.
		if i > 0 && e.offset < prevEnd {
			return nil, fmt.Errorf("grouping: overlapping members: %w", ErrCorrupt)
		}
		prevEnd = e.offset + e.size
		members = append(members, Member{Name: e.name, Data: archive[e.offset : e.offset+e.size]})
	}
	return members, nil
}

// Strategy selects how files are split into groups.
type Strategy uint8

const (
	// ByWorldSize creates one group per parallel rank (the paper's default:
	// ranks finish compression at a similar time and each writes one group).
	ByWorldSize Strategy = iota + 1
	// ByTargetSize packs greedily until each group reaches a target byte
	// size (derived from the profiled fastest-transferring file size).
	ByTargetSize
	// SingleArchive concatenates everything into one group (shown by the
	// paper to be counterproductive: it cannot use transfer concurrency).
	SingleArchive
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case ByWorldSize:
		return "by-world-size"
	case ByTargetSize:
		return "by-target-size"
	case SingleArchive:
		return "single-archive"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Plan assigns file indices to groups. sizes are per-file byte counts;
// param means: ByWorldSize → world size (rank count), ByTargetSize →
// target bytes per group. Returned groups preserve file order within each
// group and cover every index exactly once.
func Plan(sizes []int64, strategy Strategy, param int64) ([][]int, error) {
	if len(sizes) == 0 {
		return nil, errors.New("grouping: no files")
	}
	switch strategy {
	case ByWorldSize:
		world := int(param)
		if world <= 0 {
			return nil, errors.New("grouping: world size must be positive")
		}
		if world > len(sizes) {
			world = len(sizes)
		}
		groups := make([][]int, world)
		// Round-robin matches rank ownership in the parallel compressor.
		for i := range sizes {
			g := i % world
			groups[g] = append(groups[g], i)
		}
		return groups, nil
	case ByTargetSize:
		target := param
		if target <= 0 {
			return nil, errors.New("grouping: target size must be positive")
		}
		var groups [][]int
		var cur []int
		var curBytes int64
		for i, s := range sizes {
			if curBytes > 0 && curBytes+s > target {
				groups = append(groups, cur)
				cur = nil
				curBytes = 0
			}
			cur = append(cur, i)
			curBytes += s
		}
		if len(cur) > 0 {
			groups = append(groups, cur)
		}
		return groups, nil
	case SingleArchive:
		all := make([]int, len(sizes))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	default:
		return nil, fmt.Errorf("grouping: unknown strategy %v", strategy)
	}
}

// GroupSizes converts a plan into per-group byte totals (header overhead
// included, estimated at 34 bytes/member + 8).
func GroupSizes(sizes []int64, plan [][]int) []int64 {
	out := make([]int64, len(plan))
	for g, idxs := range plan {
		var b int64 = 8
		for _, i := range idxs {
			b += sizes[i] + 34
		}
		out[g] = b
	}
	return out
}

// Metadata renders the human-readable metadata text file the paper
// describes: file counts, strategy, and original filenames per group.
func Metadata(names []string, plan [][]int, strategy Strategy) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ocelot-grouping v1\nstrategy: %s\ngroups: %d\nfiles: %d\n",
		strategy, len(plan), len(names))
	for g, idxs := range plan {
		fmt.Fprintf(&sb, "group %d (%d files):\n", g, len(idxs))
		for _, i := range idxs {
			name := fmt.Sprintf("file-%d", i)
			if i < len(names) {
				name = names[i]
			}
			fmt.Fprintf(&sb, "  %s\n", name)
		}
	}
	return sb.String()
}
