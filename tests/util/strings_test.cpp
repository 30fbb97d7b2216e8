#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace flare::util {
namespace {

TEST(Split, SplitsOnDelimiter) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Split, SingleFieldWithoutDelimiter) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
}

TEST(Trim, AllWhitespaceBecomesEmpty) { EXPECT_EQ(trim(" \t "), ""); }

TEST(Trim, PreservesInteriorWhitespace) { EXPECT_EQ(trim(" a b "), "a b"); }

TEST(FormatDouble, RespectsDecimals) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-2.5, 1), "-2.5");
}

TEST(StartsWith, MatchesPrefix) {
  EXPECT_TRUE(starts_with("HP.LLC_MPKI", "HP."));
  EXPECT_FALSE(starts_with("Machine.MIPS", "HP."));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("a", "ab"));
}

TEST(ParseDouble, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("  -1e3 "), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, ThrowsOnGarbage) {
  EXPECT_THROW((void)parse_double("abc"), ParseError);
  EXPECT_THROW((void)parse_double(""), ParseError);
  EXPECT_THROW((void)parse_double("1.5x"), ParseError);
}

TEST(ParseInt, ParsesValidIntegers) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
}

TEST(ParseInt, ThrowsOnGarbage) {
  EXPECT_THROW((void)parse_int("4.2"), ParseError);
  EXPECT_THROW((void)parse_int(""), ParseError);
}

}  // namespace
}  // namespace flare::util
