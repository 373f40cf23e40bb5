#include "textflag.h"

// The record layer's kernels: SHA-1 on the SHA extensions and
// AES-256-CBC on AES-NI, alone and stitched together. They are constant
// time: no table is indexed by key or data. kernels_amd64.go checks the
// CPU before any of these runs.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// PSHUFB mask that reverses the 16 bytes of a register: message words
// are big-endian, and the SHA-1 instructions keep word 0 in the high
// lane.
DATA	flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA	flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL	flipMask<>(SB), RODATA|NOPTR, $16

// SHA-1 in four-round groups, with the message schedule of the Linux
// kernel's sha1_ni_asm.S. BX points at the 64-byte block; X0 holds ABCD
// (A in the high lane), X1 and X2 take turns as E, X3-X6 are the
// rolling message words and X7 the byte-swap mask. Rounds 0-15 load the
// message, the rest extend it with SHA1MSG1/SHA1MSG2.

#define SHA_G0 \
	MOVOU	0(BX), X3; \
	PSHUFB	X7, X3; \
	PADDL	X3, X1; \
	MOVO	X0, X2; \
	SHA1RNDS4	$0, X1, X0

#define SHA_G1 \
	MOVOU	16(BX), X4; \
	PSHUFB	X7, X4; \
	SHA1NEXTE	X4, X2; \
	MOVO	X0, X1; \
	SHA1RNDS4	$0, X2, X0; \
	SHA1MSG1	X4, X3

#define SHA_G2 \
	MOVOU	32(BX), X5; \
	PSHUFB	X7, X5; \
	SHA1NEXTE	X5, X1; \
	MOVO	X0, X2; \
	SHA1RNDS4	$0, X1, X0; \
	SHA1MSG1	X5, X4; \
	PXOR	X5, X3

#define SHA_G3 \
	MOVOU	48(BX), X6; \
	PSHUFB	X7, X6; \
	SHA1NEXTE	X6, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X6, X3; \
	SHA1RNDS4	$0, X2, X0; \
	SHA1MSG1	X6, X5; \
	PXOR	X6, X4

#define SHA_G4 \
	SHA1NEXTE	X3, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X3, X4; \
	SHA1RNDS4	$0, X1, X0; \
	SHA1MSG1	X3, X6; \
	PXOR	X3, X5

#define SHA_G5 \
	SHA1NEXTE	X4, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X4, X5; \
	SHA1RNDS4	$1, X2, X0; \
	SHA1MSG1	X4, X3; \
	PXOR	X4, X6

#define SHA_G6 \
	SHA1NEXTE	X5, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X5, X6; \
	SHA1RNDS4	$1, X1, X0; \
	SHA1MSG1	X5, X4; \
	PXOR	X5, X3

#define SHA_G7 \
	SHA1NEXTE	X6, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X6, X3; \
	SHA1RNDS4	$1, X2, X0; \
	SHA1MSG1	X6, X5; \
	PXOR	X6, X4

#define SHA_G8 \
	SHA1NEXTE	X3, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X3, X4; \
	SHA1RNDS4	$1, X1, X0; \
	SHA1MSG1	X3, X6; \
	PXOR	X3, X5

#define SHA_G9 \
	SHA1NEXTE	X4, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X4, X5; \
	SHA1RNDS4	$1, X2, X0; \
	SHA1MSG1	X4, X3; \
	PXOR	X4, X6

#define SHA_G10 \
	SHA1NEXTE	X5, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X5, X6; \
	SHA1RNDS4	$2, X1, X0; \
	SHA1MSG1	X5, X4; \
	PXOR	X5, X3

#define SHA_G11 \
	SHA1NEXTE	X6, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X6, X3; \
	SHA1RNDS4	$2, X2, X0; \
	SHA1MSG1	X6, X5; \
	PXOR	X6, X4

#define SHA_G12 \
	SHA1NEXTE	X3, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X3, X4; \
	SHA1RNDS4	$2, X1, X0; \
	SHA1MSG1	X3, X6; \
	PXOR	X3, X5

#define SHA_G13 \
	SHA1NEXTE	X4, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X4, X5; \
	SHA1RNDS4	$2, X2, X0; \
	SHA1MSG1	X4, X3; \
	PXOR	X4, X6

#define SHA_G14 \
	SHA1NEXTE	X5, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X5, X6; \
	SHA1RNDS4	$2, X1, X0; \
	SHA1MSG1	X5, X4; \
	PXOR	X5, X3

#define SHA_G15 \
	SHA1NEXTE	X6, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X6, X3; \
	SHA1RNDS4	$3, X2, X0; \
	SHA1MSG1	X6, X5; \
	PXOR	X6, X4

#define SHA_G16 \
	SHA1NEXTE	X3, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X3, X4; \
	SHA1RNDS4	$3, X1, X0; \
	SHA1MSG1	X3, X6; \
	PXOR	X3, X5

#define SHA_G17 \
	SHA1NEXTE	X4, X2; \
	MOVO	X0, X1; \
	SHA1MSG2	X4, X5; \
	SHA1RNDS4	$3, X2, X0; \
	PXOR	X4, X6

#define SHA_G18 \
	SHA1NEXTE	X5, X1; \
	MOVO	X0, X2; \
	SHA1MSG2	X5, X6; \
	SHA1RNDS4	$3, X1, X0

#define SHA_G19 \
	SHA1NEXTE	X6, X2; \
	MOVO	X0, X1; \
	SHA1RNDS4	$3, X2, X0

// SHA_SAVE and SHA_ADD bracket one block: X8 and X9 keep the state it
// started from, which the block's result is added to.
#define SHA_SAVE \
	MOVO	X0, X8; \
	MOVO	X1, X9

#define SHA_ADD \
	SHA1NEXTE	X9, X1; \
	PADDL	X8, X0

// SHA_BLOCK compresses the 64-byte block at BX into X0/X1.
#define SHA_BLOCK \
	SHA_SAVE; \
	SHA_G0; \
	SHA_G1; \
	SHA_G2; \
	SHA_G3; \
	SHA_G4; \
	SHA_G5; \
	SHA_G6; \
	SHA_G7; \
	SHA_G8; \
	SHA_G9; \
	SHA_G10; \
	SHA_G11; \
	SHA_G12; \
	SHA_G13; \
	SHA_G14; \
	SHA_G15; \
	SHA_G16; \
	SHA_G17; \
	SHA_G18; \
	SHA_G19; \
	SHA_ADD

// SHA_LOAD and SHA_STORE move the state [5]uint32 at R12 into X0/X1 and
// back.
#define SHA_LOAD \
	MOVOU	(R12), X0; \
	PSHUFD	$0x1b, X0, X0; \
	PXOR	X1, X1; \
	PINSRD	$3, 16(R12), X1; \
	MOVOU	flipMask<>(SB), X7

#define SHA_STORE \
	PSHUFD	$0x1b, X0, X0; \
	MOVOU	X0, (R12); \
	PEXTRD	$3, X1, 16(R12)

// func sha1BlockNI(h *[5]uint32, p []byte)
//
// Compresses the whole 64-byte blocks of p into h.
TEXT ·sha1BlockNI(SB), NOSPLIT, $0-32
	MOVQ	h+0(FP), R12
	MOVQ	p_base+8(FP), BX
	MOVQ	p_len+16(FP), DX
	SHRQ	$6, DX
	JZ	sha1done
	SHA_LOAD

sha1loop:
	SHA_BLOCK
	ADDQ	$64, BX
	DECQ	DX
	JNZ	sha1loop
	SHA_STORE

sha1done:
	RET

// One AES-256 key-expansion step: X1 is the previous even round key,
// X3 the odd one. AESKEYGENASSIST leaves its output in X2.
#define EXPAND_EVEN(rcon, off) \
	AESKEYGENASSIST	$rcon, X3, X2; \
	PSHUFD	$0xff, X2, X2; \
	MOVO	X1, X4; \
	PSLLO	$4, X4; \
	PXOR	X4, X1; \
	PSLLO	$4, X4; \
	PXOR	X4, X1; \
	PSLLO	$4, X4; \
	PXOR	X4, X1; \
	PXOR	X2, X1; \
	MOVOU	X1, off(DI)

#define EXPAND_ODD(off) \
	AESKEYGENASSIST	$0, X1, X2; \
	PSHUFD	$0xaa, X2, X2; \
	MOVO	X3, X4; \
	PSLLO	$4, X4; \
	PXOR	X4, X3; \
	PSLLO	$4, X4; \
	PXOR	X4, X3; \
	PSLLO	$4, X4; \
	PXOR	X4, X3; \
	PXOR	X2, X3; \
	MOVOU	X3, off(DI)

// Decryption round key i is InvMixColumns of encryption round key 14-i
// (the equivalent inverse cipher).
#define INVERT(from, to) \
	MOVOU	from(DI), X0; \
	AESIMC	X0, X0; \
	MOVOU	X0, to(SI)

// func expandKey256(key *byte, enc, dec *[240]byte)
TEXT ·expandKey256(SB), NOSPLIT, $0-24
	MOVQ	key+0(FP), AX
	MOVQ	enc+8(FP), DI
	MOVQ	dec+16(FP), SI
	MOVOU	0(AX), X1
	MOVOU	16(AX), X3
	MOVOU	X1, 0(DI)
	MOVOU	X3, 16(DI)
	EXPAND_EVEN(0x01, 32)
	EXPAND_ODD(48)
	EXPAND_EVEN(0x02, 64)
	EXPAND_ODD(80)
	EXPAND_EVEN(0x04, 96)
	EXPAND_ODD(112)
	EXPAND_EVEN(0x08, 128)
	EXPAND_ODD(144)
	EXPAND_EVEN(0x10, 160)
	EXPAND_ODD(176)
	EXPAND_EVEN(0x20, 192)
	EXPAND_ODD(208)
	EXPAND_EVEN(0x40, 224)

	MOVOU	224(DI), X0
	MOVOU	X0, 0(SI)
	INVERT(208, 16)
	INVERT(192, 32)
	INVERT(176, 48)
	INVERT(160, 64)
	INVERT(144, 80)
	INVERT(128, 96)
	INVERT(112, 112)
	INVERT(96, 128)
	INVERT(80, 144)
	INVERT(64, 160)
	INVERT(48, 176)
	INVERT(32, 192)
	INVERT(16, 208)
	MOVOU	0(DI), X0
	MOVOU	X0, 224(SI)
	RET

// func cbcEncrypt(rk *[240]byte, iv *byte, dst, src []byte)
//
// CBC encryption is one serial chain, so its speed is the latency of
// 14 AESENCs; all 15 round keys stay in registers. Round key 0 lives in
// R8:R9 and is folded into each plaintext block before it meets the
// chain, off the chain's critical path; X0-X13 hold round keys 1-14,
// X14 the next plaintext block and X15 the chain.
TEXT ·cbcEncrypt(SB), NOSPLIT, $0-64
	MOVQ	rk+0(FP), AX
	MOVQ	iv+8(FP), BX
	MOVQ	dst_base+16(FP), DI
	MOVQ	src_base+40(FP), SI
	MOVQ	src_len+48(FP), CX
	TESTQ	CX, CX
	JZ	encdone

	MOVQ	0(AX), R8
	MOVQ	8(AX), R9
	MOVOU	16(AX), X0
	MOVOU	32(AX), X1
	MOVOU	48(AX), X2
	MOVOU	64(AX), X3
	MOVOU	80(AX), X4
	MOVOU	96(AX), X5
	MOVOU	112(AX), X6
	MOVOU	128(AX), X7
	MOVOU	144(AX), X8
	MOVOU	160(AX), X9
	MOVOU	176(AX), X10
	MOVOU	192(AX), X11
	MOVOU	208(AX), X12
	MOVOU	224(AX), X13
	MOVOU	(BX), X15

encloop:
	MOVQ	0(SI), R10
	MOVQ	8(SI), R11
	XORQ	R8, R10
	XORQ	R9, R11
	MOVQ	R10, X14
	PINSRQ	$1, R11, X14
	PXOR	X14, X15
	AESENC	X0, X15
	AESENC	X1, X15
	AESENC	X2, X15
	AESENC	X3, X15
	AESENC	X4, X15
	AESENC	X5, X15
	AESENC	X6, X15
	AESENC	X7, X15
	AESENC	X8, X15
	AESENC	X9, X15
	AESENC	X10, X15
	AESENC	X11, X15
	AESENC	X12, X15
	AESENCLAST	X13, X15
	MOVOU	X15, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$16, CX
	JNZ	encloop

encdone:
	RET

// The stitched loop's AES-256 encryption of one block at off(SI) into
// off(DI): X10 is the chain, round key 0 is in R8:R9 and is folded into
// the plaintext in X12, keys 1-11 pass through X11 and keys 12-14 stay
// in X13-X15.
#define ENC_START(off) \
	MOVQ	off(SI), R10; \
	MOVQ	off+8(SI), R11; \
	XORQ	R8, R10; \
	XORQ	R9, R11; \
	MOVQ	R10, X12; \
	PINSRQ	$1, R11, X12; \
	PXOR	X12, X10

#define ENC(key) \
	MOVOU	key(AX), X11; \
	AESENC	X11, X10

#define ENC_END(off) \
	AESENC	X13, X10; \
	AESENC	X14, X10; \
	AESENCLAST	X15, X10; \
	MOVOU	X10, off(DI)

// func cbcEncryptSHA1(rk *[240]byte, iv *byte, dst, src []byte, h *[5]uint32, p *byte, blocks int)
//
// CBC-encrypts src into dst and compresses the 64-byte blocks at p into
// h, as OpenSSL's stitched aesni_cbc_sha1 does: each AES block's rounds
// are a chain of AESENCs and each SHA-1 block's a chain of SHA1RNDS4s,
// on separate units, so interleaving one SHA-1 block with four AES
// blocks runs the two chains side by side. The caller keeps p at least
// 64 bytes behind the encrypted frontier in dst, so the SHA-1 half only
// reads ciphertext already written.
TEXT ·cbcEncryptSHA1(SB), NOSPLIT, $0-88
	MOVQ	rk+0(FP), AX
	MOVQ	iv+8(FP), R10
	MOVQ	dst_base+16(FP), DI
	MOVQ	src_base+40(FP), SI
	MOVQ	src_len+48(FP), CX
	MOVQ	h+64(FP), R12
	MOVQ	p+72(FP), BX
	MOVQ	blocks+80(FP), DX
	MOVOU	(R10), X10
	MOVQ	0(AX), R8
	MOVQ	8(AX), R9
	MOVOU	192(AX), X13
	MOVOU	208(AX), X14
	MOVOU	224(AX), X15
	SHA_LOAD

stitchloop:
	CMPQ	CX, $64
	JLT	enctail
	TESTQ	DX, DX
	JZ	enctail
	SHA_SAVE
	ENC_START(0)
	ENC(16)
	ENC(32)
	ENC(48)
	SHA_G0
	ENC(64)
	ENC(80)
	ENC(96)
	SHA_G1
	ENC(112)
	ENC(128)
	ENC(144)
	SHA_G2
	ENC(160)
	ENC(176)
	SHA_G3
	ENC_END(0)
	SHA_G4
	ENC_START(16)
	ENC(16)
	ENC(32)
	ENC(48)
	SHA_G5
	ENC(64)
	ENC(80)
	ENC(96)
	SHA_G6
	ENC(112)
	ENC(128)
	ENC(144)
	SHA_G7
	ENC(160)
	ENC(176)
	SHA_G8
	ENC_END(16)
	SHA_G9
	ENC_START(32)
	ENC(16)
	ENC(32)
	ENC(48)
	SHA_G10
	ENC(64)
	ENC(80)
	ENC(96)
	SHA_G11
	ENC(112)
	ENC(128)
	ENC(144)
	SHA_G12
	ENC(160)
	ENC(176)
	SHA_G13
	ENC_END(32)
	SHA_G14
	ENC_START(48)
	ENC(16)
	ENC(32)
	ENC(48)
	SHA_G15
	ENC(64)
	ENC(80)
	ENC(96)
	SHA_G16
	ENC(112)
	ENC(128)
	ENC(144)
	SHA_G17
	ENC(160)
	ENC(176)
	SHA_G18
	ENC_END(48)
	SHA_G19
	SHA_ADD
	ADDQ	$64, SI
	ADDQ	$64, DI
	ADDQ	$64, BX
	SUBQ	$64, CX
	DECQ	DX
	JMP	stitchloop

enctail:
	TESTQ	CX, CX
	JZ	shatail
	ENC_START(0)
	ENC(16)
	ENC(32)
	ENC(48)
	ENC(64)
	ENC(80)
	ENC(96)
	ENC(112)
	ENC(128)
	ENC(144)
	ENC(160)
	ENC(176)
	ENC_END(0)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$16, CX
	JMP	enctail

shatail:
	TESTQ	DX, DX
	JZ	stitchdone
	SHA_BLOCK
	ADDQ	$64, BX
	DECQ	DX
	JMP	shatail

stitchdone:
	SHA_STORE
	RET

// One decryption round over the eight blocks in X0-X7.
#define DEC8(off) \
	MOVOU	off(AX), X8; \
	AESDEC	X8, X0; \
	AESDEC	X8, X1; \
	AESDEC	X8, X2; \
	AESDEC	X8, X3; \
	AESDEC	X8, X4; \
	AESDEC	X8, X5; \
	AESDEC	X8, X6; \
	AESDEC	X8, X7

// func cbcDecrypt(rk *[240]byte, iv *byte, dst, src []byte)
//
// CBC decryption has no chain through the cipher, so eight blocks go
// through the rounds together (X0-X7, round key in X8) and the
// pipelined AESDECs run at throughput rather than latency. X9 carries
// the previous ciphertext block across groups; every ciphertext block
// is read before its plaintext is stored, so dst may be src.
TEXT ·cbcDecrypt(SB), NOSPLIT, $0-64
	MOVQ	rk+0(FP), AX
	MOVQ	iv+8(FP), BX
	MOVQ	dst_base+16(FP), DI
	MOVQ	src_base+40(FP), SI
	MOVQ	src_len+48(FP), CX
	MOVOU	(BX), X9
	CMPQ	CX, $128
	JLT	dectail

decloop8:
	MOVOU	0(SI), X0
	MOVOU	16(SI), X1
	MOVOU	32(SI), X2
	MOVOU	48(SI), X3
	MOVOU	64(SI), X4
	MOVOU	80(SI), X5
	MOVOU	96(SI), X6
	MOVOU	112(SI), X7
	MOVOU	0(AX), X8
	PXOR	X8, X0
	PXOR	X8, X1
	PXOR	X8, X2
	PXOR	X8, X3
	PXOR	X8, X4
	PXOR	X8, X5
	PXOR	X8, X6
	PXOR	X8, X7
	DEC8(16)
	DEC8(32)
	DEC8(48)
	DEC8(64)
	DEC8(80)
	DEC8(96)
	DEC8(112)
	DEC8(128)
	DEC8(144)
	DEC8(160)
	DEC8(176)
	DEC8(192)
	DEC8(208)
	MOVOU	224(AX), X8
	AESDECLAST	X8, X0
	AESDECLAST	X8, X1
	AESDECLAST	X8, X2
	AESDECLAST	X8, X3
	AESDECLAST	X8, X4
	AESDECLAST	X8, X5
	AESDECLAST	X8, X6
	AESDECLAST	X8, X7
	PXOR	X9, X0
	MOVOU	0(SI), X10
	PXOR	X10, X1
	MOVOU	16(SI), X10
	PXOR	X10, X2
	MOVOU	32(SI), X10
	PXOR	X10, X3
	MOVOU	48(SI), X10
	PXOR	X10, X4
	MOVOU	64(SI), X10
	PXOR	X10, X5
	MOVOU	80(SI), X10
	PXOR	X10, X6
	MOVOU	96(SI), X10
	PXOR	X10, X7
	MOVOU	112(SI), X9
	MOVOU	X0, 0(DI)
	MOVOU	X1, 16(DI)
	MOVOU	X2, 32(DI)
	MOVOU	X3, 48(DI)
	MOVOU	X4, 64(DI)
	MOVOU	X5, 80(DI)
	MOVOU	X6, 96(DI)
	MOVOU	X7, 112(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$128, CX
	CMPQ	CX, $128
	JGE	decloop8

dectail:
	TESTQ	CX, CX
	JZ	decdone

decloop1:
	MOVOU	(SI), X0
	MOVO	X0, X10
	MOVOU	0(AX), X8
	PXOR	X8, X0
	MOVOU	16(AX), X8
	AESDEC	X8, X0
	MOVOU	32(AX), X8
	AESDEC	X8, X0
	MOVOU	48(AX), X8
	AESDEC	X8, X0
	MOVOU	64(AX), X8
	AESDEC	X8, X0
	MOVOU	80(AX), X8
	AESDEC	X8, X0
	MOVOU	96(AX), X8
	AESDEC	X8, X0
	MOVOU	112(AX), X8
	AESDEC	X8, X0
	MOVOU	128(AX), X8
	AESDEC	X8, X0
	MOVOU	144(AX), X8
	AESDEC	X8, X0
	MOVOU	160(AX), X8
	AESDEC	X8, X0
	MOVOU	176(AX), X8
	AESDEC	X8, X0
	MOVOU	192(AX), X8
	AESDEC	X8, X0
	MOVOU	208(AX), X8
	AESDEC	X8, X0
	MOVOU	224(AX), X8
	AESDECLAST	X8, X0
	PXOR	X9, X0
	MOVO	X10, X9
	MOVOU	X0, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$16, CX
	JNZ	decloop1

decdone:
	RET
