# ctest helper for IsaObjects.NoWeakTextSymbols (tests/CMakeLists.txt): the
# per-ISA kernel objects (kernels_avx2, kernels_avx512) must define no weak
# text symbol. A weak definition there is an out-of-line copy of an inline
# function compiled with -mavx2/-mavx512f; the linker keeps one copy per
# binary, so baseline callers could end up running it.
#
#   cmake -DNM=nm "-DOBJECTS=a.o|b.o|..." -P check_isa_symbols.cmake
string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "kernels_avx(2|512)\\.cpp\\.o(bj)?$")
    continue()
  endif()
  execute_process(COMMAND "${NM}" -C "${obj}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE symbols ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} ${obj} failed (${rc}): ${err}")
  endif()
  string(REGEX MATCHALL "[^\n]* W [^\n]*" weak "${symbols}")
  if(weak)
    string(REPLACE ";" "\n  " weak "${weak}")
    message(FATAL_ERROR "weak text symbols in ${obj}:\n  ${weak}")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()
if(NOT checked EQUAL 2)
  message(FATAL_ERROR "expected the two per-ISA kernel objects, found ${checked}")
endif()
