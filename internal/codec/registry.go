package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultName is the codec used when a caller leaves the codec choice
// empty: the SZ3-style prediction pipeline, the repository's historical
// default.
const DefaultName = "sz3"

// ErrUnknownStream indicates a stream whose magic matches no registered
// codec or container format.
var ErrUnknownStream = errors.New("codec: unknown stream magic")

// Container is a non-codec framing format (e.g. the OCSC chunked
// container) whose streams Decompress should also dispatch transparently.
// Containers sit above codecs: their payloads are codec streams in their
// own right.
type Container struct {
	// Name labels the format in errors ("ocsc").
	Name string
	// Magic is the little-endian 4-byte stream prefix.
	Magic uint32
	// Decompress decodes the whole container into a field and its shape.
	Decompress func(stream []byte) ([]float64, []int, error)
	// StreamDims parses only the container header(s) for the field shape.
	StreamDims func(stream []byte) ([]int, error)
	// DecodeTiles, when set, decodes the container tile-wise with the
	// TileDecoder contract; nil decodes it whole and visits it once.
	DecodeTiles func(stream []byte, tile []float64, visit Visit) ([]int, error)
}

var (
	regMu      sync.RWMutex
	codecs     = map[string]Codec{}
	byMagic    = map[uint32]Codec{}
	containers = map[uint32]Container{}
)

// Register adds a codec to the process-wide registry. It is intended to be
// called from init functions and panics on a duplicate name or magic —
// both indicate a build-level wiring mistake, not a runtime condition.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	name := c.Name()
	if name == "" {
		panic("codec: Register with empty name")
	}
	if _, dup := codecs[name]; dup {
		panic(fmt.Sprintf("codec: duplicate codec name %q", name))
	}
	if prev, dup := byMagic[c.Magic()]; dup {
		panic(fmt.Sprintf("codec: magic %#x already registered by %q", c.Magic(), prev.Name()))
	}
	if _, dup := containers[c.Magic()]; dup {
		panic(fmt.Sprintf("codec: magic %#x already registered as a container", c.Magic()))
	}
	codecs[name] = c
	byMagic[c.Magic()] = c
}

// RegisterContainer adds a framing format to the dispatch table so
// Decompress handles its streams transparently. Panics on a duplicate
// magic, like Register.
func RegisterContainer(ct Container) {
	regMu.Lock()
	defer regMu.Unlock()
	if ct.Decompress == nil {
		panic("codec: RegisterContainer with nil Decompress")
	}
	if prev, dup := byMagic[ct.Magic]; dup {
		panic(fmt.Sprintf("codec: magic %#x already registered by codec %q", ct.Magic, prev.Name()))
	}
	if _, dup := containers[ct.Magic]; dup {
		panic(fmt.Sprintf("codec: duplicate container magic %#x", ct.Magic))
	}
	containers[ct.Magic] = ct
}

// Names returns the registered codec names in sorted order — the list the
// CLI prints and error messages cite.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a codec by registry name. The empty string selects
// DefaultName, so callers can pass user input through unchanged. Unknown
// names error with the valid list (the consolidated name-error format
// shared with sz.ParsePredictor).
func Lookup(name string) (Codec, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	c, ok := codecs[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: %w", UnknownName("codec", name, Names()))
	}
	return c, nil
}

// Normalize maps a user-supplied codec name to its canonical registry key,
// validating it exists ("" → DefaultName).
func Normalize(name string) (string, error) {
	c, err := Lookup(name)
	if err != nil {
		return "", err
	}
	return c.Name(), nil
}

// Sniff identifies the codec that produced a stream by its magic. Streams
// shorter than 4 bytes and container magics return ErrUnknownStream (use
// Decompress for transparent container handling).
func Sniff(stream []byte) (Codec, error) {
	if len(stream) < 4 {
		return nil, ErrUnknownStream
	}
	magic := binary.LittleEndian.Uint32(stream[:4])
	regMu.RLock()
	c, ok := byMagic[magic]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: magic %#x: %w", magic, ErrUnknownStream)
	}
	return c, nil
}

// FormatName names the registered format a stream carries — a codec name
// ("sz3", "szx") or a container name ("ocsc") — for display purposes.
// Unlike Sniff it resolves container magics too.
func FormatName(stream []byte) (string, error) {
	if len(stream) < 4 {
		return "", ErrUnknownStream
	}
	magic := binary.LittleEndian.Uint32(stream[:4])
	regMu.RLock()
	defer regMu.RUnlock()
	if c, ok := byMagic[magic]; ok {
		return c.Name(), nil
	}
	if ct, ok := containers[magic]; ok {
		return ct.Name, nil
	}
	return "", fmt.Errorf("codec: magic %#x: %w", magic, ErrUnknownStream)
}

// dispatch resolves a stream's 4-byte magic to the registered codec or
// container that decodes it; exactly one of the two results is non-nil
// when err is nil.
func dispatch(stream []byte) (Codec, *Container, error) {
	if len(stream) < 4 {
		return nil, nil, ErrUnknownStream
	}
	magic := binary.LittleEndian.Uint32(stream[:4])
	regMu.RLock()
	c, isCodec := byMagic[magic]
	ct, isContainer := containers[magic]
	regMu.RUnlock()
	switch {
	case isCodec:
		return c, nil, nil
	case isContainer:
		return nil, &ct, nil
	}
	return nil, nil, fmt.Errorf("codec: magic %#x: %w", magic, ErrUnknownStream)
}

// Decompress decodes any registered stream — codec streams and container
// formats alike — by dispatching on the 4-byte magic. This is the decode
// entry point for grouped-archive members and chunked-container payloads,
// which may have been produced by any codec.
func Decompress(stream []byte) ([]float64, []int, error) {
	c, ct, err := dispatch(stream)
	switch {
	case err != nil:
		return nil, nil, err
	case c != nil:
		return c.Decompress(stream)
	}
	return ct.Decompress(stream)
}

// DecodeTiles decodes any registered stream like Decompress — it accepts
// and rejects exactly the streams Decompress does, with the same dims and
// values — but hands the reconstruction to visit in index order instead of
// returning it. Codecs implementing TileDecoder (and containers with a
// DecodeTiles hook) decode into tile or their own scratch and allocate no
// field; any other stream is decoded whole and visited once. Callers pass
// a tile of TileLen values; a visit error aborts the decode and is
// returned.
func DecodeTiles(stream []byte, tile []float64, visit Visit) ([]int, error) {
	c, ct, err := dispatch(stream)
	if err != nil {
		return nil, err
	}
	var decode func([]byte) ([]float64, []int, error)
	switch {
	case c != nil:
		if td, ok := c.(TileDecoder); ok {
			return td.DecodeTiles(stream, tile, visit)
		}
		decode = c.Decompress
	case ct.DecodeTiles != nil:
		return ct.DecodeTiles(stream, tile, visit)
	default:
		decode = ct.Decompress
	}
	recon, dims, err := decode(stream)
	if err != nil {
		return nil, err
	}
	if err := visit(0, recon); err != nil {
		return nil, err
	}
	return dims, nil
}

// StreamDims parses only the header(s) of any registered stream for the
// field shape — the cheap geometry probe container framing relies on.
func StreamDims(stream []byte) ([]int, error) {
	c, ct, err := dispatch(stream)
	switch {
	case err != nil:
		return nil, err
	case c != nil:
		return c.StreamDims(stream)
	case ct.StreamDims != nil:
		return ct.StreamDims(stream)
	}
	return nil, fmt.Errorf("codec: magic %#x: %w", ct.Magic, ErrUnknownStream)
}
