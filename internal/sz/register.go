package sz

import "ocelot/internal/codec"

// CodecName is the registry key of the SZ3-style pipeline — the
// repository's default codec (codec.DefaultName).
const CodecName = "sz3"

// sz3Codec adapts this package to the codec.Codec interface, so the
// campaign engine, planner, and CLI address the SZ3 pipeline by name
// exactly like any other registered codec.
type sz3Codec struct{}

func (sz3Codec) Name() string  { return CodecName }
func (sz3Codec) Magic() uint32 { return streamMagic }

// paramsConfig resolves codec-neutral Params into this codec's Config:
// the bound is already absolute, and the predictor hint (when set) must
// name one of the pipeline's predictors.
func paramsConfig(p codec.Params) (Config, error) {
	if err := p.Validate(); err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig(p.AbsErrorBound)
	if p.PredictorHint != "" {
		pred, err := ParsePredictor(p.PredictorHint)
		if err != nil {
			return Config{}, err
		}
		cfg.Predictor = pred
	}
	return cfg, nil
}

func (sz3Codec) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	cfg, err := paramsConfig(p)
	if err != nil {
		return nil, err
	}
	stream, _, err := Compress(data, dims, cfg)
	return stream, err
}

func (sz3Codec) Decompress(stream []byte) ([]float64, []int, error) {
	return Decompress(stream)
}

// DecodeTiles makes sz3 a codec.TileDecoder: the field is rebuilt in
// pooled scratch and visited whole.
func (sz3Codec) DecodeTiles(stream []byte, tile []float64, visit codec.Visit) ([]int, error) {
	return DecodeTiles(stream, tile, visit)
}

func (sz3Codec) StreamDims(stream []byte) ([]int, error) {
	h, _, err := parseHeader(stream)
	if err != nil {
		return nil, err
	}
	dims := make([]int, len(h.dims))
	copy(dims, h.dims)
	return dims, nil
}

func (sz3Codec) Probe(data []float64, dims []int, p codec.Params, stride int) ([]int, error) {
	cfg, err := paramsConfig(p)
	if err != nil {
		return nil, err
	}
	return SampledCodes(data, dims, cfg, stride)
}

func (sz3Codec) Caps() codec.Caps {
	return codec.Caps{Predictors: true}
}

func init() {
	codec.Register(sz3Codec{})
	// The chunked container is framing, not a codec: its payloads are
	// codec streams in their own right (any registered codec). Registering
	// it here lets codec.Decompress dispatch whole containers
	// transparently, exactly as sz.Decompress always has.
	codec.RegisterContainer(codec.Container{
		Name:        "ocsc",
		Magic:       chunkMagic,
		Decompress:  DecompressChunked,
		StreamDims:  ChunkedDims,
		DecodeTiles: DecodeChunkedTiles,
	})
}
