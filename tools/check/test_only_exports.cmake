# Test-only export gate, run as `cmake -P` by the lint.test_only_exports
# ctest:
#
#   cmake -DNM=<nm> -DOBJECTS=<objects.cmake> [-DALLOWLIST=<file>] \
#         -P test_only_exports.cmake
#
# OBJECTS is a generated file that sets three lists of object files:
# SRC_OBJECTS (the library, src/), TEST_OBJECTS (tests/ and the
# tools/fuzz harnesses) and SHIPPED_OBJECTS (bench/, examples/,
# tools/check, tools/serve). A function exported
# (nm type T) by a SRC object is a finding when a TEST object
# references it (U), no SRC or SHIPPED object does, and its name is
# not on the allowlist: a library entry point only the tests reach
# is surface to delete, or to keep on purpose with a reason.
#
# Names are compared demangled, so a constructor's or destructor's
# ABI variants (C1/C2, D1/D2) count as one function. An allowlist
# line is `<reason> <qualified name>`, the name without its
# parameter list (so it covers every overload); `#` starts a
# comment. The reason is one word:
#   virtual    reached through a vtable; tests call it devirtualized
#   same-TU    called in src/ only from its own translation unit
#   perfbench  used by perfbench/, which builds outside this tree
#   item5      kept for the claim-level correctness gates (ROADMAP)
#   checks     called by src/ only when contract checks are compiled in
#   seam       a hook kept for tests on purpose: an explicit-parameter
#              constructor, exact equality, an introspection accessor
#   unused     no caller outside tests; a deletion candidate (ROADMAP)
#
# Entries that are not test-only in this build (references differ
# with optimization and contract-check settings) are listed as a
# note, never as a failure. When an object is missing (a partial
# build) the gate reports itself skipped.

cmake_minimum_required(VERSION 3.16)

include("${OBJECTS}")

foreach(obj IN LISTS SRC_OBJECTS TEST_OBJECTS SHIPPED_OBJECTS)
    if(NOT EXISTS "${obj}")
        message("test_only_exports: skipped: ${obj} is not built "
                "(the gate needs a full build)")
        return()
    endif()
endforeach()

# Demangled vaesa:: symbols of nm type @p type (T or U) across @p
# ARGN objects, without duplicates. ABI tags are dropped so every
# name is a plain CMake list element.
function(nm_symbols out type)
    set(symbols "")
    if(ARGN)
        if(type STREQUAL "U")
            set(mode -u)
        else()
            set(mode --defined-only)
        endif()
        execute_process(COMMAND "${NM}" -C ${mode} ${ARGN}
                        OUTPUT_VARIABLE text ERROR_VARIABLE err
                        RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "test_only_exports: ${NM} failed: ${err}")
        endif()
        string(REGEX REPLACE "\\[abi:[A-Za-z0-9]+\\]" "" text "${text}")
        string(REGEX MATCHALL "\n[0-9a-f ]* ${type} [^\n]*vaesa::[^\n]*"
               symbols "\n${text}")
        list(TRANSFORM symbols REPLACE "^\n[0-9a-f ]* ${type} " "")
        list(REMOVE_DUPLICATES symbols)
    endif()
    set(${out} "${symbols}" PARENT_SCOPE)
endfunction()

nm_symbols(exports T ${SRC_OBJECTS})
nm_symbols(test_refs U ${TEST_OBJECTS})
nm_symbols(shipped_refs U ${SRC_OBJECTS} ${SHIPPED_OBJECTS})

set(reasons virtual same-TU perfbench item5 checks seam unused)
set(allowed "")
set(findings 0)
if(ALLOWLIST)
    file(STRINGS "${ALLOWLIST}" entries REGEX "^[^#]")
    foreach(entry IN LISTS entries)
        if(NOT entry MATCHES "^([^ ]+) +(.+)$")
            message("test_only_exports: malformed allowlist line "
                    "'${entry}'")
            math(EXPR findings "${findings} + 1")
            continue()
        endif()
        if(NOT CMAKE_MATCH_1 IN_LIST reasons)
            list(JOIN reasons ", " known)
            message("test_only_exports: allowlist reason "
                    "'${CMAKE_MATCH_1}' for '${CMAKE_MATCH_2}' is not "
                    "one of: ${known}")
            math(EXPR findings "${findings} + 1")
        endif()
        list(APPEND allowed "${CMAKE_MATCH_2}")
    endforeach()
endif()

set(test_only 0)
set(used "")
foreach(symbol IN LISTS exports)
    if(NOT symbol IN_LIST test_refs OR symbol IN_LIST shipped_refs)
        continue()
    endif()
    math(EXPR test_only "${test_only} + 1")
    # The qualified name: everything before the parameter list.
    string(REPLACE "operator()" "operator<call>" name "${symbol}")
    string(REGEX REPLACE "\\(.*$" "" name "${name}")
    string(REPLACE "operator<call>" "operator()" name "${name}")
    if(name IN_LIST allowed)
        list(APPEND used "${name}")
    else()
        message("test_only_exports: test-only export '${name}' "
                "(${symbol}): delete it or allowlist it with a reason")
        math(EXPR findings "${findings} + 1")
    endif()
endforeach()

if(used)
    list(REMOVE_ITEM allowed ${used})
endif()
if(allowed)
    list(JOIN allowed ", " unused)
    message("test_only_exports: note: not test-only in this build: "
            "${unused}")
endif()

list(LENGTH exports export_count)
if(findings GREATER 0)
    message(FATAL_ERROR "test_only_exports: ${findings} finding(s)")
endif()
message("test_only_exports: clean (${export_count} exports, "
        "${test_only} test-only, all allowlisted)")
