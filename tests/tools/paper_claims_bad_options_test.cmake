# paper_claims parses its options before it runs anything: an unknown row,
# an unknown option or a number that does not parse whole exits 2 with a
# message naming it, never runs a default in its place or aborts.
#
# Invoked as:
#   cmake -DPAPER_CLAIMS=<path> -P paper_claims_bad_options_test.cmake

if(NOT PAPER_CLAIMS)
  message(FATAL_ERROR "usage: cmake -DPAPER_CLAIMS=... -P ...")
endif()

# expect_rejected(<stderr regex> <args>...): exit code 2, a stderr line
# matching the regex and nothing on stdout.
function(expect_rejected pattern)
  execute_process(COMMAND "${PAPER_CLAIMS}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "paper_claims ${ARGN}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "paper_claims ${ARGN}: stderr lacks '${pattern}':\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "paper_claims ${ARGN}: printed before rejecting:\n${out}")
  endif()
endfunction()

expect_rejected("unknown option: --bogus" fig05 --bogus)
expect_rejected("bad number in option: --threads=abc" fig05 --threads=abc)
expect_rejected("bad number in option: --scale1=abc" fig05 --scale1=abc)
expect_rejected("--scale1 and --scale2 must be in \\(0, 1\\]" fig05 --scale2=2)
expect_rejected("unknown row 'fig99'" fig99)
expect_rejected("unknown option: --bogus" --bogus)

message(STATUS "paper_claims rejects bad rows and options with exit 2")
