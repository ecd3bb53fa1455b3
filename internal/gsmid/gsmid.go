// Package gsmid defines the GSM/GPRS subscriber and location identities used
// throughout the vGPRS reproduction: IMSI, TMSI, P-TMSI, TLLI, MSISDN, and
// the location/cell identifiers (LAI, RAI, CGI). Identities validate at
// construction and carry their GSM 04.08 BCD wire form.
package gsmid

import (
	"errors"
	"fmt"

	"vgprs/internal/wire"
)

// Errors returned by identity constructors.
var (
	ErrBadIMSI   = errors.New("gsmid: invalid IMSI")
	ErrBadMSISDN = errors.New("gsmid: invalid MSISDN")
)

// IMSI is the International Mobile Subscriber Identity: 6 to 15 decimal
// digits (MCC + MNC + MSIN). It is confidential to the home operator — the
// paper's Section 6 argues that a correct architecture never exposes it to
// the H.323 gatekeeper; test C4 audits exactly which elements observe values
// of this type.
type IMSI string

// ParseIMSI validates and returns an IMSI.
func ParseIMSI(s string) (IMSI, error) {
	if len(s) < 6 || len(s) > 15 {
		return "", fmt.Errorf("%w: length %d", ErrBadIMSI, len(s))
	}
	if !allDigits(s) {
		return "", fmt.Errorf("%w: non-digit in %q", ErrBadIMSI, s)
	}
	return IMSI(s), nil
}

// MustIMSI is ParseIMSI that panics on error; for test fixtures and
// compile-time-constant topologies.
func MustIMSI(s string) IMSI {
	im, err := ParseIMSI(s)
	if err != nil {
		panic(err)
	}
	return im
}

// MCC returns the three-digit mobile country code.
func (i IMSI) MCC() string { return string(i[:3]) }

// MNC returns the two-digit mobile network code. (Three-digit MNCs exist in
// some PLMNs; this reproduction uses two-digit codes throughout.)
func (i IMSI) MNC() string { return string(i[3:5]) }

// String returns the digit string.
func (i IMSI) String() string { return string(i) }

// MSISDN is the subscriber's E.164 directory number (the number a caller
// dials). In vGPRS it doubles as the H.323 alias address registered with the
// gatekeeper.
type MSISDN string

// ParseMSISDN validates and returns an MSISDN.
func ParseMSISDN(s string) (MSISDN, error) {
	if len(s) < 3 || len(s) > 15 {
		return "", fmt.Errorf("%w: length %d", ErrBadMSISDN, len(s))
	}
	if !allDigits(s) {
		return "", fmt.Errorf("%w: non-digit in %q", ErrBadMSISDN, s)
	}
	return MSISDN(s), nil
}

// MustMSISDN is ParseMSISDN that panics on error.
func MustMSISDN(s string) MSISDN {
	m, err := ParseMSISDN(s)
	if err != nil {
		panic(err)
	}
	return m
}

// CountryCode returns the leading country-code digits. This reproduction
// uses fixed-width 3-digit country codes (e.g. 886 Taiwan, 852 Hong Kong,
// 044 standing in for the UK) so routing logic stays simple.
func (m MSISDN) CountryCode() string {
	if len(m) < 3 {
		return string(m)
	}
	return string(m[:3])
}

// String returns the digit string.
func (m MSISDN) String() string { return string(m) }

// TMSI is the Temporary Mobile Subscriber Identity allocated by a VLR to
// avoid sending IMSI over the air.
type TMSI uint32

// String formats the TMSI as 8 hex digits, the conventional display form.
func (t TMSI) String() string { return fmt.Sprintf("TMSI-%08X", uint32(t)) }

// PTMSI is the packet-domain TMSI allocated by an SGSN.
type PTMSI uint32

// String formats the P-TMSI as 8 hex digits.
func (p PTMSI) String() string { return fmt.Sprintf("PTMSI-%08X", uint32(p)) }

// TLLI is the Temporary Logical Link Identity used on the Gb interface to
// address an MS (or, in vGPRS, a VMSC-hosted virtual MS). A local TLLI is
// derived from the P-TMSI by setting the two top bits (GSM 04.64 §7.2).
type TLLI uint32

// LocalTLLI derives a local TLLI from a P-TMSI.
func LocalTLLI(p PTMSI) TLLI { return TLLI(uint32(p) | 0xC0000000) }

// String formats the TLLI as 8 hex digits.
func (t TLLI) String() string { return fmt.Sprintf("TLLI-%08X", uint32(t)) }

// LAI is a Location Area Identity: PLMN (MCC+MNC) plus a location area code.
// GSM MSs trigger a location update when they observe a LAI change.
type LAI struct {
	MCC string
	MNC string
	LAC uint16
}

// String formats the LAI as MCC-MNC-LAC.
func (l LAI) String() string { return fmt.Sprintf("%s-%s-%04X", l.MCC, l.MNC, l.LAC) }

// RAI is a GPRS Routing Area Identity: a LAI plus routing area code. GPRS
// MSs (and the VMSC's virtual MSs) perform routing-area updates on RAI
// change.
type RAI struct {
	LAI LAI
	RAC uint8
}

// String formats the RAI.
func (r RAI) String() string { return fmt.Sprintf("%s-%02X", r.LAI, r.RAC) }

// CGI is a Cell Global Identity: a LAI plus cell identity. It names the cell
// a call originates in, which the VMSC records in the MM context.
type CGI struct {
	LAI LAI
	CI  uint16
}

// String formats the CGI.
func (c CGI) String() string { return fmt.Sprintf("%s-%04X", c.LAI, c.CI) }

// MobileIdentityKind discriminates the identity carried in a GSM 04.08
// Mobile Identity information element.
type MobileIdentityKind uint8

// Mobile identity kinds (GSM 04.08 §10.5.1.4 type-of-identity values are
// remapped to start at one per house style).
const (
	IdentityIMSI MobileIdentityKind = iota + 1
	IdentityTMSI
	IdentityPTMSI
)

// String names the identity kind.
func (k MobileIdentityKind) String() string {
	switch k {
	case IdentityIMSI:
		return "IMSI"
	case IdentityTMSI:
		return "TMSI"
	case IdentityPTMSI:
		return "P-TMSI"
	default:
		return fmt.Sprintf("MobileIdentityKind(%d)", uint8(k))
	}
}

// MobileIdentity is the union type carried in location-update and attach
// requests: an MS identifies itself by IMSI on first contact and by TMSI
// afterwards.
type MobileIdentity struct {
	Kind  MobileIdentityKind
	IMSI  IMSI  // set when Kind == IdentityIMSI
	TMSI  TMSI  // set when Kind == IdentityTMSI
	PTMSI PTMSI // set when Kind == IdentityPTMSI
}

// ByIMSI returns a MobileIdentity holding an IMSI.
func ByIMSI(i IMSI) MobileIdentity { return MobileIdentity{Kind: IdentityIMSI, IMSI: i} }

// ByTMSI returns a MobileIdentity holding a TMSI.
func ByTMSI(t TMSI) MobileIdentity { return MobileIdentity{Kind: IdentityTMSI, TMSI: t} }

// String formats the contained identity.
func (m MobileIdentity) String() string {
	switch m.Kind {
	case IdentityIMSI:
		return "IMSI-" + string(m.IMSI)
	case IdentityTMSI:
		return m.TMSI.String()
	case IdentityPTMSI:
		return m.PTMSI.String()
	default:
		return "MobileIdentity(unset)"
	}
}

// Marshal appends the identity's wire form to w: a kind byte, then the
// BCD-coded IMSI or the 32-bit temporary identity.
func (m MobileIdentity) Marshal(w *wire.Writer) {
	w.U8(uint8(m.Kind))
	switch m.Kind {
	case IdentityIMSI:
		w.BCD(string(m.IMSI))
	case IdentityTMSI:
		w.U32(uint32(m.TMSI))
	case IdentityPTMSI:
		w.U32(uint32(m.PTMSI))
	}
}

// UnmarshalMobileIdentity reads a MobileIdentity from r.
func UnmarshalMobileIdentity(r *wire.Reader) MobileIdentity {
	kind := MobileIdentityKind(r.U8())
	m := MobileIdentity{Kind: kind}
	switch kind {
	case IdentityIMSI:
		m.IMSI = IMSI(r.BCD())
	case IdentityTMSI:
		m.TMSI = TMSI(r.U32())
	case IdentityPTMSI:
		m.PTMSI = PTMSI(r.U32())
	}
	return m
}

// MarshalLAI appends a LAI's wire form: BCD MCC+MNC then the LAC.
func MarshalLAI(w *wire.Writer, l LAI) {
	w.BCD2(l.MCC, l.MNC)
	w.U16(l.LAC)
}

// UnmarshalLAI reads a LAI written by MarshalLAI. It assumes a 3-digit MCC
// and 2-digit MNC, this repository's convention.
func UnmarshalLAI(r *wire.Reader) LAI {
	plmn := r.BCD()
	lac := r.U16()
	l := LAI{LAC: lac}
	if len(plmn) >= 5 {
		l.MCC, l.MNC = plmn[:3], plmn[3:5]
	}
	return l
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
