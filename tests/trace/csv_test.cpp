#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace flare::trace {
namespace {

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesSpecialFields) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvRow, WriteParseRoundTrip) {
  const std::vector<std::string> fields = {"plain", "with,comma", "with \"quote\"",
                                           "", "3.14"};
  std::ostringstream out;
  write_csv_row(out, fields);
  std::string line = out.str();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // strip trailing newline
  EXPECT_EQ(parse_csv_row(line), fields);
}

TEST(CsvRow, ParsesSimpleRow) {
  EXPECT_EQ(parse_csv_row("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_row("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(parse_csv_row(""), (std::vector<std::string>{""}));
}

TEST(CsvRow, ParsesQuotedCommasAndQuotes) {
  EXPECT_EQ(parse_csv_row("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(parse_csv_row("\"he said \"\"hi\"\"\""),
            (std::vector<std::string>{"he said \"hi\""}));
}

TEST(CsvRow, StripsCarriageReturn) {
  EXPECT_EQ(parse_csv_row("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvRow, RejectsMalformedQuoting) {
  EXPECT_THROW((void)parse_csv_row("\"unterminated"), ParseError);
  EXPECT_THROW((void)parse_csv_row("ab\"cd\""), ParseError);
}

TEST(ReadLines, ReadsNonEmptyLines) {
  const std::string path = ::testing::TempDir() + "/flare_csv_test.txt";
  {
    std::ofstream out(path);
    out << "one\n\ntwo\r\nthree";
  }
  EXPECT_EQ(read_csv_content(path).lines,
            (std::vector<std::string>{"one", "two\r", "three"}));
  std::remove(path.c_str());
}

TEST(ReadLines, ThrowsOnMissingFile) {
  EXPECT_THROW((void)read_csv_content("/nonexistent/definitely/missing.csv"),
               ParseError);
}

}  // namespace
}  // namespace flare::trace
