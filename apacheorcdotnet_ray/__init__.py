"""apacheorcdotnet_ray — a Ray-Data-native per-column lightweight-compression engine.

From-scratch reimplementation of the query/data-processing capabilities of
ddrinka/ApacheOrcDotNet (an ORC v0.12 writer/reader) as an idiomatic Ray Data
pipeline: zero-copy Arrow batches flow through ``map_batches`` stripe
encoders/decoders built on vectorized NumPy codec kernels (RLEv2, ByteRLE,
bit-pack, dictionary, frame-of-reference, FSST) with per-stripe codec
auto-selection, per-partition lineage for checkpoint/resume, and partial+final
statistics roll-ups.

Layout:
  codecs/    pure NumPy codec kernels (no Ray) — bit-exact with the reference
  stripe/    stripe container format: column stream layout, footer, zlib framing
  stages/    stateless map_batches callables (stripe encode/decode tasks)
  sources/   datasources + deterministic test-corpus synthesizers
  pipelines/ user-facing Ray Data pipelines (encode/decode/verify/dedup/...)
  state/     manifest + lineage records for resumable jobs
"""

__version__ = "0.1.0"
