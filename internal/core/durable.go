package core

import (
	"fmt"

	"cordial/internal/bincodec"
	"cordial/internal/features"
	"cordial/internal/hbm"
)

// DurableSession is optionally implemented by sessions whose per-bank state
// can be checkpointed. EncodeState must capture everything OnEvent depends
// on, such that RestoreSession followed by the same event suffix produces
// decisions bit-identical to the uninterrupted session — the contract the
// engine's snapshot/recovery path is built on.
type DurableSession interface {
	Session
	// EncodeState returns a self-contained binary image of the session.
	EncodeState() ([]byte, error)
}

// DurableStrategy is optionally implemented by strategies whose sessions
// can be restored from an EncodeState image. The engine requires it when a
// WAL/snapshot directory is configured.
type DurableStrategy interface {
	Strategy
	// RestoreSession rebuilds a session from an EncodeState image. It fails
	// (rather than guessing) when the image's configuration does not match
	// the strategy's.
	RestoreSession(bank hbm.BankAddress, data []byte) (Session, error)
}

// cordialSession state image: magic, version, flags, class, then the
// feature-state blob, or nothing once released. Version 2 added the quiet
// image, which no session writes — a session is never quiet — but the stream
// engine does, for the banks it keeps as observations (AppendQuietImage).
// Version-1 images still load.
const (
	sessionMagic   = "CSES"
	sessionVersion = 2
	sessionWhat    = "core: session state"
	// sessionHeaderSize is the magic, the version, the flags and the class.
	sessionHeaderSize = 7

	sessFlagClassified = 1 << 0
	sessFlagHasState   = 1 << 1
	sessFlagQuiet      = 1 << 2
)

var (
	_ DurableSession  = (*cordialSession)(nil)
	_ DurableSession  = (*releasedSession)(nil)
	_ DurableStrategy = (*CordialStrategy)(nil)
)

// EncodeState captures the session: classification outcome plus the full
// incremental feature state, or no state (a spared bank).
func (s *cordialSession) EncodeState() ([]byte, error) {
	if s.released {
		return s.image(0, nil), nil
	}
	blob, err := s.state.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return s.image(sessFlagHasState, blob), nil
}

func (s *releasedSession) EncodeState() ([]byte, error) { return s.image(0, nil), nil }

// image is the session image of the verdict with flags and a state blob.
func (v *sessionVerdict) image(flags byte, blob []byte) []byte {
	if v.classified {
		flags |= sessFlagClassified
	}
	out := make([]byte, 0, sessionHeaderSize+len(blob))
	out = append(append(out, sessionMagic...), sessionVersion, flags, v.class)
	return append(out, blob...)
}

// sessionImageHeader checks an image's magic and version and returns the
// version, the flags and the class byte; the body starts at sessionHeaderSize.
func sessionImageHeader(data []byte) (ver, flags, class byte, err error) {
	if len(data) < sessionHeaderSize {
		return 0, 0, 0, fmt.Errorf("%s too short (%d bytes)", sessionWhat, len(data))
	}
	if string(data[:4]) != sessionMagic {
		return 0, 0, 0, fmt.Errorf("%s: bad magic", sessionWhat)
	}
	if v := data[4]; v != 1 && v != sessionVersion {
		return 0, 0, 0, fmt.Errorf("%s: unsupported version %d", sessionWhat, v)
	}
	return data[4], data[5], data[6], nil
}

// QuietLogMax is the most observations a quiet image holds.
const QuietLogMax = 31

// A quiet image is a version-2 image with flags sessFlagQuiet and class 0,
// then the observation log of a bank that has logged no UER: what
// ResumeSession over that log restores. AppendQuietImage and QuietImageLog are
// its encoder and decoder; neither builds a session.

// AppendQuietImage appends the quiet image of log to dst. It fails on a log
// the decoder would refuse.
func AppendQuietImage(dst []byte, log []features.Obs) ([]byte, error) {
	c := bincodec.Cursor{B: append(dst, sessionMagic...), What: sessionWhat}
	c.B = append(c.B, sessionVersion, sessFlagQuiet, 0)
	features.CodeObs(&c, &log, QuietLogMax)
	return c.B, c.Err
}

// QuietImageLog decodes a quiet image into its observation log, into buf when
// buf's capacity holds it. Any other image reports quiet false and an empty
// log — one with a bad header too, which RestoreSession then refuses with the
// reason.
func QuietImageLog(image []byte, buf []features.Obs) (log []features.Obs, quiet bool, err error) {
	log = buf[:0]
	ver, flags, class, err := sessionImageHeader(image)
	if err != nil || flags != sessFlagQuiet || ver == 1 {
		return log, false, nil
	}
	c := bincodec.Cursor{B: image, Off: sessionHeaderSize, Decode: true, What: sessionWhat}
	if class != 0 {
		c.Fail("quiet session with class %d", class)
	}
	features.CodeObs(&c, &log, QuietLogMax)
	return log, true, c.Done()
}

// RestoreSession rebuilds a cordialSession from an EncodeState image,
// verifying that an embedded feature state was produced under this
// pipeline's pattern and block configuration. A quiet image restores as the
// session ResumeSession makes of its log.
func (s *CordialStrategy) RestoreSession(bank hbm.BankAddress, data []byte) (Session, error) {
	ver, flags, class, err := sessionImageHeader(data)
	if err != nil {
		return nil, err
	}
	rest := data[sessionHeaderSize:]
	v := sessionVerdict{classified: flags&sessFlagClassified != 0, class: class}
	switch flags &^ sessFlagClassified {
	case 0:
		if len(rest) != 0 {
			return nil, fmt.Errorf("%s: released session carries %d state bytes", sessionWhat, len(rest))
		}
		return &releasedSession{v}, nil
	case sessFlagQuiet:
		if ver == 1 || v.classified {
			return nil, fmt.Errorf("%s: quiet session in a version-%d image, classified=%t", sessionWhat, ver, v.classified)
		}
		log, _, err := QuietImageLog(data, nil)
		if err != nil {
			return nil, err
		}
		return s.ResumeSession(bank, log), nil
	case sessFlagHasState:
		// Decoded in place: session, state and first rows are one allocation.
		cs := &cordialSession{strategy: s, sessionVerdict: v}
		if err := cs.state.UnmarshalBinary(rest); err != nil {
			return nil, err
		}
		cfg := s.Pipeline.Config()
		if got := cs.state.Config(); got != cfg.Pattern {
			return nil, fmt.Errorf("core: session pattern config %+v does not match pipeline %+v", got, cfg.Pattern)
		}
		if got := cs.state.Spec(); got != cfg.Block {
			return nil, fmt.Errorf("core: session block spec %+v does not match pipeline %+v", got, cfg.Block)
		}
		return cs, nil
	default:
		return nil, fmt.Errorf("%s: flags %#x", sessionWhat, flags)
	}
}
