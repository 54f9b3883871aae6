package szx

import "ocelot/internal/codec"

// szxCodec adapts the package functions to the codec.Codec interface, and
// to codec.TileDecoder.
type szxCodec struct{}

func (szxCodec) Name() string  { return Name }
func (szxCodec) Magic() uint32 { return Magic }

func (szxCodec) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return Compress(data, dims, p.AbsErrorBound)
}

func (szxCodec) Decompress(stream []byte) ([]float64, []int, error) {
	return Decompress(stream)
}

func (szxCodec) DecodeTiles(stream []byte, tile []float64, visit codec.Visit) ([]int, error) {
	return DecodeTiles(stream, tile, visit)
}

func (szxCodec) StreamDims(stream []byte) ([]int, error) {
	return StreamDims(stream)
}

func (szxCodec) Probe(data []float64, dims []int, p codec.Params, stride int) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return Probe(data, dims, p.AbsErrorBound, stride)
}

func (szxCodec) Caps() codec.Caps {
	return codec.Caps{}
}

func init() {
	codec.Register(szxCodec{})
}
