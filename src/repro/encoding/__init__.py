"""Entropy-coding stages of the compression pipeline.

SZ's pipeline (paper Section II-A) is: prediction -> error-controlled
quantization -> **customized Huffman coding** -> **GZIP**.  This package
implements the last two stages from scratch:

* :mod:`repro.encoding.bitio` -- vectorized variable-length bit packing.
* :mod:`repro.encoding.huffman` -- canonical Huffman coding with
  package-merge length limiting, a fully vectorized encoder, and a
  segment-parallel decoder whose lock-step walks rely on Huffman
  codes resynchronising after a few symbols.
* :mod:`repro.encoding.rans` -- the interleaved range-ANS decoder, which
  reads the sz containers that earlier builds wrote with rANS.
* :mod:`repro.encoding.lossless` -- the trailing lossless stage (zlib /
  DEFLATE, i.e. what GZIP uses, per the paper).
* :mod:`repro.encoding.codes` -- the stage every quantization codec
  ends with: escape out-of-radius codes, entropy-code the rest, GZIP
  the table and payload, and the inverse; plus the container-header
  read and input validation those codecs share.
"""

from repro.encoding.bitio import pack_codes, unpack_bits, BitWriter, BitReader
from repro.encoding.huffman import CanonicalHuffman, huffman_encode, huffman_decode
from repro.encoding.lossless import lossless_compress, lossless_decompress

__all__ = [
    "pack_codes",
    "unpack_bits",
    "BitWriter",
    "BitReader",
    "CanonicalHuffman",
    "huffman_encode",
    "huffman_decode",
    "lossless_compress",
    "lossless_decompress",
]
