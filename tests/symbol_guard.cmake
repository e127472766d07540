# Link-symbol guard: fails when a compiled object references a host clock or
# platform entropy, or when a src/core or src/pcie object instantiates
# std::function. It reads the symbols the compiler emitted, so no alias,
# macro or include order can hide a use. docs/CORRECTNESS.md ("Guards
# enforced by the toolchain") states what it cannot see.
#
# Tree:     cmake -DNM=<nm> -DROOT=<build dir> -P symbol_guard.cmake
#           scans every .a and .o under ROOT/{src,bench,examples,tests,tools}.
# Fixtures: cmake -DNM=<nm> -DCXX=<c++> -DSRC=<repo>/src -DFIXTURES=<dir>
#                 -DOUT=<dir> -DGUARD=<guard> -DKIND=<pos|neg>
#                 -P symbol_guard.cmake
#           compiles <guard>_<KIND>.fixture into OUT. On pos every family of
#           GUARD must fire; on neg no family of any guard may.

# Families per guard: <family>|<regex over the tail of one `nm -C` line>. A C
# function is matched by its exact name after the symbol-type letter, so
# `apn::Sim::time()` or a member named `random` stays clean.
set(wall_clock
    "host clock|_clock::now\\(\\)\n"
    "gettimeofday| [A-Za-z] gettimeofday\n"
    "clock_gettime| [A-Za-z] clock_gettime\n"
    "time()| [A-Za-z] time\n"
    "clock()| [A-Za-z] clock\n")
set(raw_rand
    "C library PRNG| [A-Za-z] (s?rand|rand_r|s?random|[a-z]?rand48(_r)?)\n"
    "std::random_device|std::random_device"
    "std::mersenne_twister_engine|std::mersenne_twister_engine<"
    "std::linear_congruential_engine|std::linear_congruential_engine<"
    "std::subtract_with_carry_engine|std::subtract_with_carry_engine<")
set(std_function "std::function|std::_Function_(handler|base)")

# Appends "<file>: [<family>] <symbol line>" to `hits_var` for every symbol of
# `file` that matches one of the families in ARGN.
function(scan file hits_var)
  execute_process(COMMAND ${NM} -C ${file} OUTPUT_VARIABLE syms
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "SymbolGuard: ${NM} failed on ${file}")
  endif()
  # Every line gets a newline of its own on each side, so a match that
  # consumes one line's trailing newline leaves the next line matchable.
  string(REPLACE "\n" "\n\n" syms "\n${syms}")
  set(hits ${${hits_var}})
  foreach(entry IN LISTS ARGN)
    string(FIND "${entry}" "|" bar)
    string(SUBSTRING "${entry}" 0 ${bar} family)
    math(EXPR bar "${bar} + 1")
    string(SUBSTRING "${entry}" ${bar} -1 regex)
    string(REGEX MATCHALL "\n[^\n]*${regex}[^\n]*" found "${syms}")
    foreach(line IN LISTS found)
      string(STRIP "${line}" line)
      list(APPEND hits "${file}: [${family}] ${line}")
    endforeach()
  endforeach()
  set(${hits_var} ${hits} PARENT_SCOPE)
endfunction()

function(fail_on hits what)
  if(hits)
    list(JOIN hits "\n  " text)
    message(FATAL_ERROR "SymbolGuard: ${what}:\n  ${text}")
  endif()
endfunction()

if(DEFINED ROOT)
  set(objects "")
  foreach(dir src bench examples tests tools)
    file(GLOB_RECURSE found "${ROOT}/${dir}/*.o" "${ROOT}/${dir}/*.a")
    list(APPEND objects ${found})
  endforeach()
  list(LENGTH objects n)
  if(n EQUAL 0)
    message(FATAL_ERROR "SymbolGuard: no objects under ${ROOT}; build first")
  endif()
  list(SORT objects)
  set(hits "")
  foreach(obj IN LISTS objects)
    file(RELATIVE_PATH rel ${ROOT} ${obj})
    if(rel MATCHES "^src/(core|pcie)/")
      scan(${obj} hits ${wall_clock} ${raw_rand} ${std_function})
    else()
      scan(${obj} hits ${wall_clock} ${raw_rand})
    endif()
  endforeach()
  fail_on("${hits}" "banned symbols in the build tree")
  message(STATUS "SymbolGuard: ${n} objects clean")
else()
  if(NOT GUARD MATCHES "^(wall_clock|raw_rand|std_function)$" OR
     NOT KIND MATCHES "^(pos|neg)$")
    message(FATAL_ERROR "SymbolGuard: bad GUARD=${GUARD} or KIND=${KIND}")
  endif()
  set(name ${GUARD}_${KIND})
  file(MAKE_DIRECTORY ${OUT})
  execute_process(
    COMMAND ${CXX} -std=c++20 -I${SRC} -c -x c++ ${FIXTURES}/${name}.fixture
            -o ${OUT}/${name}.o
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "SymbolGuard: ${name}.fixture does not compile")
  endif()
  if(KIND STREQUAL "neg")
    set(hits "")
    scan(${OUT}/${name}.o hits ${wall_clock} ${raw_rand} ${std_function})
    fail_on("${hits}" "${name}.fixture is not clean")
    message(STATUS "SymbolGuard: ${name}.fixture is clean")
  else()
    set(missed "")
    foreach(entry IN LISTS ${GUARD})
      set(hits "")
      scan(${OUT}/${name}.o hits ${entry})
      if(NOT hits)
        list(APPEND missed "${entry}")
      endif()
    endforeach()
    fail_on("${missed}" "families that miss ${name}.fixture")
    message(STATUS "SymbolGuard: every ${GUARD} family fires on ${name}.fixture")
  endif()
endif()
