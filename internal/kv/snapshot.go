package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot format: a magic header followed by length-prefixed records and a
// trailing CRC-32 of everything before it. It is the durable store's
// compaction format (kv/durable writes one per compaction and loads the
// newest on boot), which spares the system a full LSM tree the paper's
// evaluation never exercises.

var snapshotMagic = [8]byte{'T', 'C', 'K', 'V', 'S', 'N', 'A', '1'}

// WriteSnapshot serializes every key/value pair of src to w.
func WriteSnapshot(w io.Writer, src Store) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var count uint64
	var scanErr error
	var lenBuf [8]byte
	writeChunk := func(b []byte) bool {
		binary.BigEndian.PutUint32(lenBuf[:4], uint32(len(b)))
		if _, err := bw.Write(lenBuf[:4]); err != nil {
			scanErr = err
			return false
		}
		if _, err := bw.Write(b); err != nil {
			scanErr = err
			return false
		}
		return true
	}
	err := src.Scan("", func(k string, v []byte) bool {
		if !writeChunk([]byte(k)) || !writeChunk(v) {
			return false
		}
		count++
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	// Terminator record: length 0xFFFFFFFF, then count, then CRC.
	binary.BigEndian.PutUint32(lenBuf[:4], ^uint32(0))
	if _, err := bw.Write(lenBuf[:4]); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(lenBuf[:], count)
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], crc.Sum32())
	_, err = w.Write(crcBuf[:])
	return err
}

// WriteSnapshotFile writes a snapshot of src to path atomically and
// durably: the bytes go to a temp file in the same directory, the temp
// file is fsync'd, renamed over path, and the directory is fsync'd. A
// crash at any point leaves either the complete old file or the complete
// new one — never a torn snapshot that fails its CRC on the next boot
// (which would lose the previous good copy too).
func WriteSnapshotFile(path string, src Store) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := WriteSnapshot(f, src); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadSnapshot loads a snapshot produced by WriteSnapshot into dst.
func ReadSnapshot(r io.Reader, dst Store) error {
	crc := crc32.NewIEEE()
	// Buffer below the tee so read-ahead never hashes bytes (like the
	// trailing CRC itself) that the decoder has not consumed yet.
	buffered := bufio.NewReader(r)
	br := io.TeeReader(buffered, crc)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("kv: reading snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("kv: bad snapshot magic %q", magic[:])
	}
	readChunk := func() ([]byte, bool, error) {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, false, err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == ^uint32(0) {
			return nil, true, nil
		}
		if n > 1<<30 {
			return nil, false, fmt.Errorf("kv: snapshot record of %d bytes", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, false, err
		}
		return buf, false, nil
	}
	var count uint64
	for {
		key, done, err := readChunk()
		if err != nil {
			return fmt.Errorf("kv: reading snapshot key: %w", err)
		}
		if done {
			break
		}
		val, done, err := readChunk()
		if err != nil || done {
			return fmt.Errorf("kv: reading snapshot value: %w", err)
		}
		if err := dst.Put(string(key), val); err != nil {
			return err
		}
		count++
	}
	var tail [8]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return fmt.Errorf("kv: reading snapshot count: %w", err)
	}
	if got := binary.BigEndian.Uint64(tail[:]); got != count {
		return fmt.Errorf("kv: snapshot count %d, loaded %d", got, count)
	}
	wantCRC := crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(buffered, crcBuf[:]); err != nil {
		return fmt.Errorf("kv: reading snapshot crc: %w", err)
	}
	if got := binary.BigEndian.Uint32(crcBuf[:]); got != wantCRC {
		return fmt.Errorf("kv: snapshot crc mismatch: file %08x, computed %08x", got, wantCRC)
	}
	return nil
}
