// Package oracle holds the pre-overhaul coders the shipping codecs are
// pinned against, byte for byte: a bit-granular Writer and Reader
// (bitstream.go), the heap-merge Huffman table builder with its
// append-as-you-go encoder and bit-by-bit decoder (huffman.go), and the
// unpooled DEFLATE pass of sz3 stream version 1 (lossless.go). Their
// value is that they do not change: do not optimise them.
//
// Only _test.go files may import this package, so the shipping build
// never links it; TestTestOnlyPackages (tools/ocelotvet) enforces both.
package oracle
