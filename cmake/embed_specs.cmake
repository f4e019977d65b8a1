# Writes OUT, the initializer list of frontend/registry.cpp's embedded spec
# table: one `{"<file>.cta", R"ctaspec(<text>)ctaspec"},` line per .cta
# file in SPEC_DIR, sorted by name. Run by the top-level CMakeLists.txt as
#   cmake -DSPEC_DIR=<dir> -DOUT=<file> -P embed_specs.cmake
file(GLOB specs "${SPEC_DIR}/*.cta")
list(SORT specs)
set(body "// Generated from ${SPEC_DIR} by cmake/embed_specs.cmake; do not edit.\n")
foreach(spec IN LISTS specs)
  get_filename_component(name "${spec}" NAME)
  file(READ "${spec}" text)
  string(FIND "${text}" ")ctaspec\"" clash)
  if(NOT clash EQUAL -1)
    message(FATAL_ERROR "${spec} contains the raw-string delimiter )ctaspec\"")
  endif()
  string(APPEND body "{\"${name}\", R\"ctaspec(${text})ctaspec\"},\n")
endforeach()
file(WRITE "${OUT}" "${body}")
