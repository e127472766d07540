# Suite fingerprint: runs bench binaries at the fingerprint configuration
# (APN_BENCH_SCALE=14, apenet_2013, one worker) and checks their NDJSON
# against tests/golden/suite.ndjson.
#
# Check one bench (what each SuiteFingerprint.* ctest runs):
#   cmake -DBENCH=<binary> -DKEY=<bench key> -DGOLDEN=<suite.ndjson>
#         -DOUT=<scratch.ndjson> -P check_bench.cmake
# The records the bench writes must equal, line for line and in order, the
# golden records whose "bench" field is KEY.
#
# Rebuild the golden file (what the bless_suite_golden target runs):
#   cmake -DBLESS=<binary>=<key>|<binary>=<key>|... -DGOLDEN=<suite.ndjson>
#         -DOUT=<scratch.ndjson> -P check_bench.cmake
# writes every listed bench's records to GOLDEN, in the order given.

function(run_bench binary out)
  set(ENV{APN_BENCH_SCALE} 14)
  execute_process(
    COMMAND "${binary}" --jobs=1 --hw-profile=apenet_2013 "--json=${out}"
    OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} exited with ${rc}")
  endif()
endfunction()

if(DEFINED BLESS)
  string(REPLACE "|" ";" pairs "${BLESS}")
  set(suite "")
  foreach(pair IN LISTS pairs)
    string(REPLACE "=" ";" pair "${pair}")
    list(GET pair 0 binary)
    run_bench("${binary}" "${OUT}")
    file(READ "${OUT}" records)
    string(APPEND suite "${records}")
  endforeach()
  file(WRITE "${GOLDEN}" "${suite}")
  return()
endif()

run_bench("${BENCH}" "${OUT}")
file(STRINGS "${OUT}" actual)
file(STRINGS "${GOLDEN}" expected REGEX "^{\"bench\": \"${KEY}\",")
if(actual STREQUAL expected)
  list(LENGTH actual n)
  message(STATUS "${KEY}: ${n} records match")
  return()
endif()

list(LENGTH expected n_expected)
list(LENGTH actual n_actual)
set(report "")
set(shown 0)
set(n ${n_expected})
if(n_actual GREATER n)
  set(n ${n_actual})
endif()
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  set(want "<missing>")
  set(got "<missing>")
  if(i LESS n_expected)
    list(GET expected ${i} want)
  endif()
  if(i LESS n_actual)
    list(GET actual ${i} got)
  endif()
  if(NOT want STREQUAL got AND shown LESS 10)
    string(APPEND report "record ${i}:\n  golden: ${want}\n  actual: ${got}\n")
    math(EXPR shown "${shown} + 1")
  endif()
endforeach()
message(FATAL_ERROR
  "${KEY}: ${n_actual} records, golden has ${n_expected}; first "
  "differences:\n${report}Re-bless only with an explained diff "
  "(cmake --build <build> --target bless_suite_golden).")
