package lte

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// The over-the-air encoding of uplink grants below is a compact DCI
// format-0-style message (3GPP 36.212 §5.3.3.1.1) carried in the
// downlink control region. BLU's over-scheduling is "readily compatible
// with LTE specifications" (paper §2.3/§4.1) precisely because the eNB
// may transmit several such grants for the same resource allocation —
// each addressed to a different UE's RNTI — and the standard encoding
// has no field coupling grants on the same RBs, which is what the
// feasibility argument rests on. The simulator never puts grants on the
// air, so the codec lives beside the tests that make that argument.

// DCI is an uplink scheduling grant as carried on the PDCCH: the
// addressed UE, the allocated resource-block range, the MCS index, and
// the subframe the grant is valid for.
type DCI struct {
	// RNTI identifies the addressed UE (C-RNTI range 0x003D–0xFFF3).
	RNTI uint16
	// RBStart and RBLen encode the contiguous type-0 UL allocation.
	RBStart, RBLen uint8
	// MCS is the modulation-and-coding index (0–31; 0–14 used here).
	MCS uint8
	// NDI is the new-data indicator toggled per transport block.
	NDI bool
	// TPC is the 2-bit transmit power control command.
	TPC uint8
	// SF is the uplink subframe index the grant addresses (k+4 rule
	// folded in by the caller), modulo 1024.
	SF uint16
}

// Wire size of an encoded DCI in bytes (fixed-size encoding with CRC).
const DCIWireSize = 10

// dciMagic guards against decoding garbage control payloads.
const dciMagic = 0xB1

// Errors returned by DCI decoding.
var (
	ErrDCIShort = errors.New("lte: DCI payload too short")
	ErrDCIMagic = errors.New("lte: not a DCI payload")
	ErrDCICRC   = errors.New("lte: DCI CRC mismatch")
)

// Validate checks field ranges against the 10 MHz carrier.
func (d DCI) Validate() error {
	if int(d.RBStart)+int(d.RBLen) > 50 {
		return fmt.Errorf("lte: DCI allocation [%d, %d) exceeds 50 RBs", d.RBStart, int(d.RBStart)+int(d.RBLen))
	}
	if d.RBLen == 0 {
		return errors.New("lte: DCI with empty allocation")
	}
	if d.MCS > 31 {
		return fmt.Errorf("lte: DCI MCS %d out of range", d.MCS)
	}
	if d.TPC > 3 {
		return fmt.Errorf("lte: DCI TPC %d out of range", d.TPC)
	}
	return nil
}

// Encode appends the wire form of the grant to dst and returns the
// extended slice. Layout (big-endian):
//
//	byte 0    magic
//	byte 1-2  RNTI
//	byte 3    RBStart
//	byte 4    RBLen
//	byte 5    MCS (5 bits) | NDI (1 bit) | TPC (2 bits)
//	byte 6-7  SF mod 1024
//	byte 8-9  CRC-16 over bytes 0-7, masked with the RNTI as the
//	          standard does so only the addressed UE validates it
func (d DCI) Encode(dst []byte) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, dciMagic)
	dst = binary.BigEndian.AppendUint16(dst, d.RNTI)
	dst = append(dst, d.RBStart, d.RBLen)
	flags := (d.MCS & 0x1F) << 3
	if d.NDI {
		flags |= 0x04
	}
	flags |= d.TPC & 0x03
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, d.SF&0x3FF)
	crc := crc16(dst[start:]) ^ d.RNTI
	dst = binary.BigEndian.AppendUint16(dst, crc)
	return dst, nil
}

// DecodeDCI parses one grant from the head of buf for the UE addressed
// by rnti, returning the grant and the remaining bytes. A CRC mismatch
// (the grant is addressed to someone else, or corrupted) returns
// ErrDCICRC; the caller skips DCIWireSize bytes and tries the next
// candidate, which is exactly how UEs blind-decode the PDCCH.
func DecodeDCI(buf []byte, rnti uint16) (DCI, []byte, error) {
	if len(buf) < DCIWireSize {
		return DCI{}, buf, ErrDCIShort
	}
	if buf[0] != dciMagic {
		return DCI{}, buf, ErrDCIMagic
	}
	body, tail := buf[:DCIWireSize-2], buf[DCIWireSize-2:DCIWireSize]
	want := binary.BigEndian.Uint16(tail)
	if crc16(body)^rnti != want {
		return DCI{}, buf, ErrDCICRC
	}
	d := DCI{
		RNTI:    binary.BigEndian.Uint16(buf[1:3]),
		RBStart: buf[3],
		RBLen:   buf[4],
		MCS:     buf[5] >> 3,
		NDI:     buf[5]&0x04 != 0,
		TPC:     buf[5] & 0x03,
		SF:      binary.BigEndian.Uint16(buf[6:8]),
	}
	if d.RNTI != rnti {
		// CRC collision with a foreign RNTI is possible but the RNTI
		// field must then still disagree.
		return DCI{}, buf, ErrDCICRC
	}
	return d, buf[DCIWireSize:], nil
}

// ControlRegion serializes the uplink grants of one DL subframe's
// control region, possibly several per RB range (over-scheduling).
type ControlRegion struct {
	Grants []DCI
}

// Marshal encodes every grant back-to-back.
func (c ControlRegion) Marshal() ([]byte, error) {
	var out []byte
	for _, g := range c.Grants {
		var err error
		out, err = g.Encode(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GrantsFor blind-decodes the control region the way a UE does,
// returning every grant addressed to rnti.
func GrantsFor(payload []byte, rnti uint16) []DCI {
	var out []DCI
	for len(payload) >= DCIWireSize {
		d, rest, err := DecodeDCI(payload, rnti)
		if err == nil {
			out = append(out, d)
			payload = rest
			continue
		}
		payload = payload[DCIWireSize:]
	}
	return out
}

// crc16 is CRC-16/CCITT-FALSE, the generator LTE uses for PDCCH CRCs
// (truncated from CRC-24 for this model).
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// MarshalSchedule encodes a Schedule's grants for subframe sf with the
// given RB-group width, assigning UE i the RNTI base+i. It is the
// transmit side of the feasibility demonstration: over-scheduled RB
// groups simply emit one DCI per granted UE.
func MarshalSchedule(s *Schedule, sf int, rbPerGroup int, rntiBase uint16) ([]byte, error) {
	if rbPerGroup <= 0 {
		rbPerGroup = 1
	}
	region := ControlRegion{}
	for b, ues := range s.RB {
		for _, ue := range ues {
			region.Grants = append(region.Grants, DCI{
				RNTI:    rntiBase + uint16(ue),
				RBStart: uint8(b * rbPerGroup),
				RBLen:   uint8(rbPerGroup),
				MCS:     10,
				SF:      uint16(sf) & 0x3FF,
			})
		}
	}
	return region.Marshal()
}

func TestDCIEncodeDecodeRoundTrip(t *testing.T) {
	d := DCI{RNTI: 0x1234, RBStart: 10, RBLen: 5, MCS: 9, NDI: true, TPC: 2, SF: 777}
	buf, err := d.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != DCIWireSize {
		t.Fatalf("wire size = %d", len(buf))
	}
	got, rest, err := DecodeDCI(buf, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if got != d {
		t.Errorf("round trip: got %+v, want %+v", got, d)
	}
}

func TestDCIRoundTripProperty(t *testing.T) {
	f := func(rnti uint16, rbStart, rbLen, mcs, tpc uint8, ndi bool, sf uint16) bool {
		d := DCI{
			RNTI:    rnti,
			RBStart: rbStart % 45,
			RBLen:   1 + rbLen%5,
			MCS:     mcs % 32,
			NDI:     ndi,
			TPC:     tpc % 4,
			SF:      sf % 1024,
		}
		buf, err := d.Encode(nil)
		if err != nil {
			return false
		}
		got, _, err := DecodeDCI(buf, rnti)
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDCIWrongRNTIFailsCRC(t *testing.T) {
	d := DCI{RNTI: 100, RBStart: 0, RBLen: 5, MCS: 3}
	buf, err := d.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeDCI(buf, 101); err != ErrDCICRC {
		t.Errorf("foreign RNTI decode err = %v, want ErrDCICRC", err)
	}
}

func TestDCICorruptionDetected(t *testing.T) {
	d := DCI{RNTI: 55, RBStart: 20, RBLen: 10, MCS: 7}
	buf, err := d.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		corrupted := append([]byte(nil), buf...)
		corrupted[i] ^= 0x40
		if _, _, err := DecodeDCI(corrupted, 55); err == nil {
			t.Errorf("bit flip at byte %d not detected", i)
		}
	}
}

func TestDCIValidation(t *testing.T) {
	bad := []DCI{
		{RNTI: 1, RBStart: 48, RBLen: 5}, // beyond 50 RBs
		{RNTI: 1, RBStart: 0, RBLen: 0},  // empty
		{RNTI: 1, RBLen: 1, MCS: 40},     // MCS range
		{RNTI: 1, RBLen: 1, TPC: 7},      // TPC range
	}
	for i, d := range bad {
		if _, err := d.Encode(nil); err == nil {
			t.Errorf("case %d: invalid DCI encoded", i)
		}
	}
}

func TestDCIShortAndGarbage(t *testing.T) {
	if _, _, err := DecodeDCI([]byte{1, 2, 3}, 1); err != ErrDCIShort {
		t.Errorf("short buffer err = %v", err)
	}
	garbage := make([]byte, DCIWireSize)
	if _, _, err := DecodeDCI(garbage, 1); err != ErrDCIMagic {
		t.Errorf("garbage err = %v", err)
	}
}

// TestOverScheduledControlRegion is the §2.3 feasibility check in
// miniature: multiple grants for the same RBs, different RNTIs, all
// recoverable by their addressees and invisible to others.
func TestOverScheduledControlRegion(t *testing.T) {
	s := NewSchedule(2)
	s.RB[0] = []int{0, 1, 2} // over-scheduled: three UEs on RB group 0
	s.RB[1] = []int{3}
	payload, err := MarshalSchedule(s, 42, 5, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 4*DCIWireSize {
		t.Fatalf("payload = %d bytes", len(payload))
	}
	for ue := 0; ue < 4; ue++ {
		grants := GrantsFor(payload, 0x100+uint16(ue))
		if len(grants) != 1 {
			t.Fatalf("UE %d decoded %d grants", ue, len(grants))
		}
		g := grants[0]
		if g.SF != 42 {
			t.Errorf("UE %d grant SF = %d", ue, g.SF)
		}
		wantStart := uint8(0)
		if ue == 3 {
			wantStart = 5
		}
		if g.RBStart != wantStart || g.RBLen != 5 {
			t.Errorf("UE %d allocation [%d,%d)", ue, g.RBStart, g.RBStart+g.RBLen)
		}
	}
	// A UE with no grant decodes nothing.
	if got := GrantsFor(payload, 0x100+9); len(got) != 0 {
		t.Errorf("unscheduled UE decoded %d grants", len(got))
	}
	// The three same-RB grants address three distinct RNTIs.
	region := ControlRegion{}
	for _, rnti := range []uint16{0x100, 0x101, 0x102} {
		gs := GrantsFor(payload, rnti)
		region.Grants = append(region.Grants, gs...)
	}
	if len(region.Grants) != 3 {
		t.Errorf("same-RB grants = %d, want 3", len(region.Grants))
	}
}
