#ifndef PREGELIX_COMMON_JSON_H_
#define PREGELIX_COMMON_JSON_H_

#include <cstdio>
#include <ostream>
#include <string_view>

namespace pregelix {

/// Writes `s` as the body of a JSON string literal (no surrounding quotes).
/// Lossless: `"` and `\` are escaped, `\n`, `\r` and `\t` take their short
/// forms, and every other control character becomes `\u00XX`. The one JSON
/// string escaper of every exporter (metrics, trace, ledger, journal, plan
/// profile, server).
inline void AppendJsonEscaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace pregelix

#endif  // PREGELIX_COMMON_JSON_H_
