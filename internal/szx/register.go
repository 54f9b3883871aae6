package szx

import "ocelot/internal/codec"

// szxCodec adapts the package functions to the codec.Codec interface, and
// to codec.TileDecoder and codec.Pooled.
type szxCodec struct{}

func (szxCodec) Name() string  { return Name }
func (szxCodec) Magic() uint32 { return Magic }

func (szxCodec) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return Compress(data, dims, p.AbsErrorBound)
}

// CompressPooled implements codec.Pooled: the stream is the pooled
// encoder's buffer, and release puts the encoder back.
func (szxCodec) CompressPooled(data []float64, dims []int, p codec.Params) ([]byte, func(), error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	e := encoderPool.Get().(*encoder)
	release := func() { encoderPool.Put(e) }
	stream, err := e.compress(data, dims, p.AbsErrorBound, DefaultBlockSize)
	if err != nil {
		release()
		return nil, nil, err
	}
	return stream, release, nil
}

// CompressRelative implements codec.Pooled: the field at the default block
// size under relEB × its value range (codec.RelativeBound), in the pooled
// encoder's buffer. The range comes from the blocks' own extremes scan,
// not from a pass of its own, and the stream and bound are exactly
// CompressBlocked's at sz.Config.AbsoluteBound's bound. p's bound is not
// read.
func (szxCodec) CompressRelative(data []float64, dims []int, relEB float64, _ codec.Params) ([]byte, float64, func(), error) {
	e := encoderPool.Get().(*encoder)
	release := func() { encoderPool.Put(e) }
	stream, absEB, err := e.compressRelative(data, dims, relEB)
	if err != nil {
		release()
		return nil, 0, nil, err
	}
	return stream, absEB, release, nil
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
