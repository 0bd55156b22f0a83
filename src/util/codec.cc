#include "util/codec.h"

namespace forkbase {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  dst->append(buf, 8);
}

char* EncodeVarint64(char* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

void PutVarint64(std::string* dst, uint64_t v) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, v) - buf);
}

void PutLengthPrefixed(std::string* dst, Slice s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

bool Decoder::GetFixed32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(in_.byte(pos_ + i)) << (8 * i);
  }
  pos_ += 4;
  *v = r;
  return true;
}

bool Decoder::GetFixed64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(in_.byte(pos_ + i)) << (8 * i);
  }
  pos_ += 8;
  *v = r;
  return true;
}

bool Decoder::GetVarint64(uint64_t* v) {
  const size_t start = pos_;
  uint64_t r = 0;
  int shift = 0;
  while (pos_ < in_.size() && shift <= 63) {
    uint8_t b = in_.byte(pos_++);
    r |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // Canonical minimal form only (the codec.h contract): a zero final
      // byte after a continuation byte is an overlong encoding of a value
      // PutVarint64 would have emitted shorter, and the tenth byte can only
      // carry bit 63. Accepting either would let two byte strings decode to
      // one value — and desync VarintLength-based bookkeeping.
      if (b == 0 && shift > 0) {
        pos_ = start;
        return false;
      }
      if (shift == 63 && b > 1) {
        pos_ = start;
        return false;
      }
      *v = r;
      return true;
    }
    shift += 7;
  }
  pos_ = start;
  return false;
}

bool Decoder::GetLengthPrefixed(Slice* s) {
  uint64_t len;
  if (!GetVarint64(&len)) return false;
  return GetRaw(static_cast<size_t>(len), s);
}

bool Decoder::GetRaw(size_t n, Slice* s) {
  if (remaining() < n) return false;
  *s = in_.substr(pos_, n);
  pos_ += n;
  return true;
}

}  // namespace forkbase
